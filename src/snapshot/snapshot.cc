#include "snapshot/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace ronpath::snap {
namespace {

constexpr char kMagic[8] = {'R', 'O', 'N', 'P', 'S', 'N', 'A', 'P'};

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> seal(std::uint64_t fingerprint,
                               const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof kMagic);
  out.reserve(kSnapshotHeaderBytes + payload.size() + 8);
  put_u32(out, kSnapshotVersion);
  put_u64(out, fingerprint);
  put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  put_u64(out, crc64(out.data(), out.size()));
  return out;
}

std::vector<std::uint8_t> unseal(const std::vector<std::uint8_t>& file,
                                 std::uint64_t expected_fingerprint) {
  if (file.size() < kSnapshotMinBytes) {
    throw SnapshotError("snapshot: file truncated (" + std::to_string(file.size()) +
                        " byte(s), a valid snapshot needs at least " +
                        std::to_string(kSnapshotMinBytes) + ")");
  }
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    throw SnapshotError("snapshot: bad magic — not a snapshot file");
  }
  const std::uint32_t version = get_u32(file.data() + 8);
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot: unsupported format version " + std::to_string(version) +
                        " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint64_t fingerprint = get_u64(file.data() + 12);
  const std::uint64_t payload_len = get_u64(file.data() + 20);
  if (payload_len != file.size() - kSnapshotMinBytes) {
    throw SnapshotError("snapshot: payload length field says " + std::to_string(payload_len) +
                        " byte(s) but the file carries " +
                        std::to_string(file.size() - kSnapshotMinBytes));
  }
  // Checksum before the fingerprint check: a corrupted fingerprint field
  // should be reported as corruption, not as a config mismatch.
  const std::size_t body = file.size() - 8;
  const std::uint64_t want_crc = get_u64(file.data() + body);
  const std::uint64_t got_crc = crc64(file.data(), body);
  if (want_crc != got_crc) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "stored %016llx, computed %016llx",
                  static_cast<unsigned long long>(want_crc),
                  static_cast<unsigned long long>(got_crc));
    throw SnapshotError(std::string("snapshot: checksum mismatch (") + buf +
                        ") — file is corrupted");
  }
  if (fingerprint != expected_fingerprint) {
    throw SnapshotError(
        "snapshot: context fingerprint mismatch — this snapshot was taken from a "
        "different scenario, scheme, configuration or seed");
  }
  return {file.begin() + static_cast<std::ptrdiff_t>(kSnapshotHeaderBytes),
          file.begin() + static_cast<std::ptrdiff_t>(body)};
}

void write_file(const std::string& path, std::uint64_t fingerprint,
                const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> sealed = seal(fingerprint, payload);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    throw SnapshotError("snapshot: cannot open '" + path + "' for writing: " +
                        std::strerror(errno));
  }
  const std::size_t written = std::fwrite(sealed.data(), 1, sealed.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != sealed.size() || !flushed) {
    throw SnapshotError("snapshot: short write to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_file(const std::string& path,
                                    std::uint64_t expected_fingerprint) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw SnapshotError("snapshot: cannot open '" + path + "' for reading: " +
                        std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw SnapshotError("snapshot: read error on '" + path + "'");
  }
  return unseal(bytes, expected_fingerprint);
}

}  // namespace ronpath::snap
