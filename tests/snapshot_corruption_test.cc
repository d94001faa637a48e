// Snapshot decode hardening: truncated, bit-flipped, version-skewed and
// mis-addressed snapshot files must fail with a clear SnapshotError —
// never undefined behavior, never a silent misread. The fuzz-style
// sweeps run over a corpus of real SimWorld snapshots taken at several
// checkpoints of a canonical scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fault_matrix.h"
#include "core/testbed.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "util/rng.h"

namespace ronpath {
namespace {

FaultMatrixConfig small_config() {
  FaultMatrixConfig cfg;
  cfg.node_count = 4;
  cfg.warmup = Duration::minutes(2);
  cfg.measured = Duration::minutes(3);
  cfg.send_interval = Duration::millis(500);
  return cfg;
}

const Scenario& scenario() {
  const Scenario* s = find_scenario("single-site-blackout");
  EXPECT_NE(s, nullptr);
  return *s;
}

// A corpus of sealed snapshot files taken at several checkpoints.
struct CorpusEntry {
  std::size_t checkpoint;
  std::uint64_t fingerprint;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> file;
};

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries = [] {
    std::vector<CorpusEntry> out;
    for (const std::size_t checkpoint : {std::size_t{0}, std::size_t{50}, std::size_t{200}}) {
      SimWorld world(scenario(), FaultScheme::kReactive, small_config(), 42);
      world.advance_to(checkpoint);
      snap::Encoder e;
      world.save_state(e);
      CorpusEntry entry;
      entry.checkpoint = checkpoint;
      entry.fingerprint = world.fingerprint();
      entry.payload = e.bytes();
      entry.file = snap::seal(world.fingerprint(), entry.payload);
      out.push_back(std::move(entry));
    }
    return out;
  }();
  return entries;
}

TEST(SnapshotEnvelope, SealUnsealRoundTrips) {
  for (const CorpusEntry& entry : corpus()) {
    ASSERT_GE(entry.file.size(), snap::kSnapshotMinBytes);
    const std::vector<std::uint8_t> payload = snap::unseal(entry.file, entry.fingerprint);
    EXPECT_EQ(payload, entry.payload) << "checkpoint " << entry.checkpoint;
  }
}

TEST(SnapshotEnvelope, RestoredPayloadRestoresCleanly) {
  const CorpusEntry& entry = corpus().back();
  const std::vector<std::uint8_t> payload = snap::unseal(entry.file, entry.fingerprint);
  SimWorld fresh(scenario(), FaultScheme::kReactive, small_config(), 42);
  snap::Decoder d(payload);
  EXPECT_NO_THROW(fresh.restore_state(d));
  EXPECT_EQ(fresh.next_send(), entry.checkpoint);
}

TEST(SnapshotEnvelope, EveryTruncationIsRejected) {
  const CorpusEntry& entry = corpus().front();
  // Every header-region prefix, then strides through the payload, then
  // every cut through the trailing checksum.
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < snap::kSnapshotMinBytes && len < entry.file.size(); ++len) {
    cuts.push_back(len);
  }
  for (std::size_t len = snap::kSnapshotMinBytes; len < entry.file.size(); len += 97) {
    cuts.push_back(len);
  }
  for (std::size_t back = 1; back <= 9 && back < entry.file.size(); ++back) {
    cuts.push_back(entry.file.size() - back);
  }
  for (const std::size_t len : cuts) {
    std::vector<std::uint8_t> cut(entry.file.begin(),
                                  entry.file.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)snap::unseal(cut, entry.fingerprint), snap::SnapshotError)
        << "truncated to " << len << " of " << entry.file.size() << " bytes";
  }
}

TEST(SnapshotEnvelope, SeededBitFlipFuzz) {
  Rng rng(20260807);
  for (const CorpusEntry& entry : corpus()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> mutated = entry.file;
      const std::size_t bit = rng.next_below(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_THROW((void)snap::unseal(mutated, entry.fingerprint), snap::SnapshotError)
          << "checkpoint " << entry.checkpoint << " flipped bit " << bit;
    }
  }
}

TEST(SnapshotEnvelope, MultiByteCorruptionInPayloadIsRejected) {
  const CorpusEntry& entry = corpus().back();
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> mutated = entry.file;
    const std::size_t span = 1 + rng.next_below(32);
    const std::size_t at =
        snap::kSnapshotHeaderBytes +
        rng.next_below(entry.payload.size() > span ? entry.payload.size() - span : 1);
    for (std::size_t i = 0; i < span; ++i) {
      mutated[at + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (mutated == entry.file) continue;  // rewrote identical bytes
    EXPECT_THROW((void)snap::unseal(mutated, entry.fingerprint), snap::SnapshotError)
        << "trial " << trial;
  }
}

TEST(SnapshotEnvelope, BadMagicIsRejectedWithDiagnostic) {
  std::vector<std::uint8_t> mutated = corpus().front().file;
  mutated[0] = 'X';
  try {
    (void)snap::unseal(mutated, corpus().front().fingerprint);
    FAIL() << "bad magic accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("magic"), std::string::npos) << err.what();
  }
}

TEST(SnapshotEnvelope, VersionSkewIsRejectedWithDiagnostic) {
  // Patch the version field and re-seal the CRC so version skew is the
  // *only* defect — the error must name the version, not the checksum.
  std::vector<std::uint8_t> mutated = corpus().front().file;
  mutated[8] = 99;
  const std::size_t body = mutated.size() - 8;
  const std::uint64_t crc = snap::crc64(mutated.data(), body);
  for (int i = 0; i < 8; ++i) {
    mutated[body + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff);
  }
  try {
    (void)snap::unseal(mutated, corpus().front().fingerprint);
    FAIL() << "version 99 accepted";
  } catch (const snap::SnapshotError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

TEST(SnapshotEnvelope, FingerprintMismatchIsRejectedWithDiagnostic) {
  const CorpusEntry& entry = corpus().front();
  try {
    (void)snap::unseal(entry.file, entry.fingerprint ^ 1);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("different"), std::string::npos) << err.what();
  }
}

TEST(SnapshotEnvelope, ChecksumMismatchNamesTheChecksum) {
  std::vector<std::uint8_t> mutated = corpus().front().file;
  mutated[mutated.size() / 2] ^= 0x40;
  try {
    (void)snap::unseal(mutated, corpus().front().fingerprint);
    FAIL() << "corrupt body accepted";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos) << err.what();
  }
}

// Raw payload truncations must be caught by the decoder or the world's
// own validation — a strict prefix can never restore successfully.
TEST(SnapshotCorruption, TruncatedPayloadNeverRestores) {
  const CorpusEntry& entry = corpus().back();
  for (std::size_t len = 0; len < entry.payload.size(); len += 131) {
    std::vector<std::uint8_t> cut(entry.payload.begin(),
                                  entry.payload.begin() + static_cast<std::ptrdiff_t>(len));
    SimWorld fresh(scenario(), FaultScheme::kReactive, small_config(), 42);
    snap::Decoder d(cut);
    EXPECT_THROW(fresh.restore_state(d), snap::SnapshotError) << "payload prefix " << len;
  }
}

// Restoring a snapshot from a *differently configured* world must be
// stopped by the fingerprint before any payload decoding happens.
TEST(SnapshotCorruption, CrossWorldRestoreIsBlocked) {
  const CorpusEntry& entry = corpus().front();
  SimWorld other(scenario(), FaultScheme::kMesh, small_config(), 42);
  EXPECT_NE(other.fingerprint(), entry.fingerprint);
  EXPECT_THROW((void)snap::unseal(entry.file, other.fingerprint()), snap::SnapshotError);

  FaultMatrixConfig cfg = small_config();
  cfg.node_count = 5;
  SimWorld bigger(scenario(), FaultScheme::kReactive, cfg, 42);
  EXPECT_NE(bigger.fingerprint(), entry.fingerprint);

  SimWorld reseeded(scenario(), FaultScheme::kReactive, small_config(), 43);
  EXPECT_NE(reseeded.fingerprint(), entry.fingerprint);
}

// The NETW section lists the built underlay components as ascending
// (index, state) pairs. Hand-encoded lists exercise the only check left
// in that section: a malformed list must throw, never build out of range
// or out of order.
Network netw_network() {
  return Network(testbed_2003(), NetConfig::profile_2003(), Duration::hours(1), Rng(5));
}

// Encodes a NETW section declaring `declared` entries and listing
// `indices`, each followed by a freshly built component's state;
// `trailer` appends the packet Rng, drop statistics and watermark.
std::vector<std::uint8_t> netw_payload(const std::vector<std::uint64_t>& indices,
                                       std::uint64_t declared, bool trailer = true) {
  Network donor = netw_network();
  snap::Encoder e;
  e.tag("NETW");
  e.u64(declared);
  for (const std::uint64_t ci : indices) {
    e.u64(ci);
    donor.component(std::min<std::uint64_t>(ci, donor.component_count() - 1)).save_state(e);
  }
  if (trailer) {
    snap::save_rng(e, Rng(9));
    for (int i = 0; i < 6; ++i) e.i64(0);
    e.time(TimePoint::epoch());
  }
  return e.bytes();
}

// Restores `payload` into a fresh network; returns the SnapshotError
// message, or an empty string when the payload restored.
std::string netw_error(const std::vector<std::uint8_t>& payload) {
  Network net = netw_network();
  snap::Decoder d(payload);
  try {
    net.restore_state(d);
  } catch (const snap::SnapshotError& err) {
    return err.what();
  }
  return {};
}

TEST(SnapshotCorruption, WellFormedComponentListRestores) {
  Network net = netw_network();
  const std::vector<std::uint8_t> payload = netw_payload({0, 7, 500}, 3);
  snap::Decoder d(payload);
  ASSERT_NO_THROW(net.restore_state(d));
  EXPECT_TRUE(d.done());
  EXPECT_EQ(net.materialized_components(), 3u);
}

TEST(SnapshotCorruption, MalformedComponentListIsRejected) {
  const std::uint64_t count = netw_network().component_count();
  const std::vector<std::vector<std::uint64_t>> bad_lists = {
      {7, 0},      // unsorted
      {7, 7},      // repeated index
      {0, count},  // index past the last component
  };
  for (const auto& list : bad_lists) {
    const std::string err = netw_error(netw_payload(list, list.size()));
    EXPECT_NE(err.find("corrupt or unsorted"), std::string::npos)
        << "list " << list[0] << "," << list[1] << ": " << err;
  }
  // More entries declared than the payload holds: one past the end of a
  // bare list, and a count no payload of this size could carry.
  const std::string one_more = netw_error(netw_payload({0, 7}, 3, false));
  EXPECT_NE(one_more.find("truncated"), std::string::npos) << one_more;
  const std::string absurd = netw_error(netw_payload({0, 7}, std::uint64_t{1} << 40));
  EXPECT_NE(absurd.find("exceeds remaining payload"), std::string::npos) << absurd;
}

TEST(SnapshotFiles, WriteReadRoundTrip) {
  const CorpusEntry& entry = corpus().front();
  const std::string path = testing::TempDir() + "/ronpath_corruption_roundtrip.snap";
  snap::write_file(path, entry.fingerprint, entry.payload);
  const std::vector<std::uint8_t> payload = snap::read_file(path, entry.fingerprint);
  EXPECT_EQ(payload, entry.payload);
  std::remove(path.c_str());
}

TEST(SnapshotFiles, MissingAndUnwritablePathsFailWithDiagnostic) {
  EXPECT_THROW((void)snap::read_file(testing::TempDir() + "/ronpath_no_such_file.snap", 0),
               snap::SnapshotError);
  try {
    snap::write_file("/nonexistent-ronpath-dir/out.snap", 0, {1, 2, 3});
    FAIL() << "write to unwritable path succeeded";
  } catch (const snap::SnapshotError& err) {
    EXPECT_NE(std::string(err.what()).find("cannot open"), std::string::npos) << err.what();
  }
}

}  // namespace
}  // namespace ronpath
