// Byte-level encoder/decoder for the snapshot subsystem.
//
// Header-only on purpose: every layer that owns mutable simulation state
// (event, net, overlay, routing) gains save_state()/restore_state()
// methods taking these types, and a header-only codec means none of those
// libraries grows a link dependency on the snapshot library — only the
// snapshot library itself (world/audit/file I/O) links against core.
//
// Wire rules:
//   * little-endian fixed-width integers (memcpy on the LE targets we
//     build for; bytes are written explicitly so big-endian would still
//     round-trip with itself);
//   * doubles as their IEEE-754 bit pattern (bit_cast), so restoring is
//     bit-exact — a requirement, since the simulation must continue
//     byte-identically;
//   * Duration/TimePoint as int64 nanoseconds;
//   * strings and blobs length-prefixed with u64;
//   * every logical section starts with a 4-char tag, checked on decode,
//     so a truncated or corrupted stream fails with a located diagnostic
//     instead of silently misreading trailing state.
//
// The Decoder bounds-checks every read and throws SnapshotError; it never
// reads out of bounds, so corrupted input is rejected, not UB.

#ifndef RONPATH_SNAPSHOT_CODEC_H_
#define RONPATH_SNAPSHOT_CODEC_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "util/time.h"

namespace ronpath::snap {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void duration(Duration d) { i64(d.count_nanos()); }
  void time(TimePoint t) { i64(t.since_epoch().count_nanos()); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  // Section tag: exactly four characters, checked on decode.
  void tag(const char (&t)[5]) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(t[i]));
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  // Reads `bytes` in place: they must outlive the decoder, so a
  // temporary vector is rejected at compile time.
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : Decoder(bytes.data(), bytes.size()) {}
  Decoder(std::vector<std::uint8_t>&&) = delete;

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("snapshot: bool byte out of range at offset " + at(1));
    return v == 1;
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  Duration duration() { return Duration::nanos(i64()); }
  TimePoint time() { return TimePoint::from_nanos(i64()); }
  std::string str() {
    const std::uint64_t len = u64();
    need(len, "string body");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }
  // Length-checked count prefix for a container whose elements need at
  // least `min_elem_bytes` each — rejects absurd counts from corrupted
  // streams before any allocation.
  std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      throw SnapshotError("snapshot: element count " + std::to_string(n) +
                          " exceeds remaining payload at offset " + at(8));
    }
    return n;
  }
  void expect_tag(const char (&t)[5]) {
    need(4, "section tag");
    if (std::memcmp(data_ + pos_, t, 4) != 0) {
      std::string got(reinterpret_cast<const char*>(data_ + pos_), 4);
      for (char& c : got) {
        if (c < 0x20 || c > 0x7e) c = '?';
      }
      pos_ += 4;
      throw SnapshotError("snapshot: section tag mismatch at offset " + at(4) + ": expected \"" +
                          t + "\", got \"" + got + "\"");
    }
    pos_ += 4;
  }
  void expect_done() const {
    if (!done()) {
      throw SnapshotError("snapshot: " + std::to_string(remaining()) +
                          " unconsumed trailing byte(s)");
    }
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) {
      throw SnapshotError("snapshot: truncated payload reading " + std::string(what) +
                          " at offset " + std::to_string(pos_) + " (need " + std::to_string(n) +
                          " byte(s), have " + std::to_string(remaining()) + ")");
    }
  }
  [[nodiscard]] std::string at(std::size_t width) const { return std::to_string(pos_ - width); }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Rng stream state, shared by every layer's save/restore code.
inline void save_rng(Encoder& e, const Rng& rng) {
  const Rng::State st = rng.save_state();
  for (const std::uint64_t w : st.s) e.u64(w);
  e.f64(st.spare_normal);
  e.b(st.has_spare_normal);
}
inline void restore_rng(Decoder& d, Rng& rng) {
  Rng::State st;
  for (std::uint64_t& w : st.s) w = d.u64();
  st.spare_normal = d.f64();
  st.has_spare_normal = d.b();
  rng.restore_state(st);
}

// CRC-64/XZ (reflected, poly 0x42F0E1EBA9EA3693), used as the snapshot
// file checksum. Slicing-by-8: eight tables built once, lazily, fold
// eight input bytes per step; table 0 alone is the bytewise CRC, which
// finishes the tail. Same values as the bytewise loop.
inline std::uint64_t crc64(const std::uint8_t* data, std::size_t size,
                           std::uint64_t crc = 0) {
  static const std::array<std::array<std::uint64_t, 256>, 8> table = [] {
    std::array<std::array<std::uint64_t, 256>, 8> t{};
    for (std::uint64_t i = 0; i < 256; ++i) {
      std::uint64_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xC96C5795D7870F42ull : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  crc = ~crc;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t v = 0;  // little-endian load, whatever the host order
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(data[i + b]) << (8 * b);
    crc ^= v;
    crc = table[7][crc & 0xff] ^ table[6][(crc >> 8) & 0xff] ^ table[5][(crc >> 16) & 0xff] ^
          table[4][(crc >> 24) & 0xff] ^ table[3][(crc >> 32) & 0xff] ^
          table[2][(crc >> 40) & 0xff] ^ table[1][(crc >> 48) & 0xff] ^ table[0][crc >> 56];
  }
  for (; i < size; ++i) crc = table[0][(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

// Bit-packs a flag sequence, LSB-first within each byte.
inline std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

// FNV-1a over a byte string; used for configuration fingerprints.
inline std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}
inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace ronpath::snap

#endif  // RONPATH_SNAPSHOT_CODEC_H_
