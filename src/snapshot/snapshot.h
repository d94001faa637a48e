// Snapshot file envelope: versioned, checksummed container for a
// serialized simulation payload.
//
// Layout (all little-endian):
//
//   offset  size  field
//        0     8  magic "RONPSNAP"
//        8     4  format version (currently 9; DESIGN.md §12 lists
//                 what each version changed)
//       12     8  context fingerprint (FNV-1a over scenario/scheme/
//                 config/seeds; see CellRun::cell_fingerprint)
//       20     8  payload length in bytes
//       28     n  payload (codec.h sections)
//     28+n     8  CRC-64/XZ over bytes [0, 28+n)
//
// Versioning policy: the version bumps on ANY change to the payload
// encoding (section order, field widths, new sections) — there is no
// in-place migration, because a snapshot is only ever restored into a
// binary built from the same source tree. Old snapshots are rejected
// with a clear diagnostic rather than misread.
//
// Every failure mode (truncation, bad magic, version skew, checksum
// mismatch, fingerprint mismatch) throws snap::SnapshotError with a
// specific message; unseal never reads out of bounds on corrupted input.

#ifndef RONPATH_SNAPSHOT_SNAPSHOT_H_
#define RONPATH_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/codec.h"

namespace ronpath::snap {

inline constexpr std::uint32_t kSnapshotVersion = 9;
inline constexpr std::size_t kSnapshotHeaderBytes = 28;
inline constexpr std::size_t kSnapshotMinBytes = kSnapshotHeaderBytes + 8;

// Wraps a payload in the envelope above.
[[nodiscard]] std::vector<std::uint8_t> seal(std::uint64_t fingerprint,
                                             const std::vector<std::uint8_t>& payload);

// Validates the envelope and returns the payload. `expected_fingerprint`
// guards against restoring a snapshot into a differently-configured
// world. Throws SnapshotError on any problem.
[[nodiscard]] std::vector<std::uint8_t> unseal(const std::vector<std::uint8_t>& file,
                                               std::uint64_t expected_fingerprint);

// File variants. write_file throws SnapshotError when the path is not
// writable; read_file when it is missing, unreadable, or fails unseal.
void write_file(const std::string& path, std::uint64_t fingerprint,
                const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path,
                                                  std::uint64_t expected_fingerprint);

}  // namespace ronpath::snap

#endif  // RONPATH_SNAPSHOT_SNAPSHOT_H_
