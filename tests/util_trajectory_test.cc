// Trajectory-file parsing (util/trajectory.h): the --compare baseline
// must come from the LAST entry only, tolerating rows that predate
// later-added fields (bench_hotpath's pre-PR6 sharded columns).

#include "util/trajectory.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

namespace ronpath {
namespace {

constexpr const char* kTwoEntries = R"([
{
  "schema": "ronpath-bench-hotpath-v1",
  "label": "old-with-sharded",
  "packets_per_sec": 100.0,
  "sharded_packets_per_sec": 50.0
},
{
  "schema": "ronpath-bench-hotpath-v1",
  "label": "new-without-sharded",
  "packets_per_sec": 200.0
}
])";

TEST(Trajectory, LastEntryPicksTheNewestObject) {
  const std::string entry = traj::last_entry(kTwoEntries);
  EXPECT_NE(entry.find("new-without-sharded"), std::string::npos);
  EXPECT_EQ(entry.find("old-with-sharded"), std::string::npos);
}

TEST(Trajectory, MissingFieldFallsBackInsteadOfLeakingOlderEntries) {
  // The regression this guards: a whole-file "last occurrence" scan
  // would resolve sharded_packets_per_sec to the OLD entry's 50.0 and
  // compare a fresh run against a stale baseline. Entry-scoped lookup
  // reports the field as absent.
  const std::string entry = traj::last_entry(kTwoEntries);
  EXPECT_EQ(traj::number_field(entry, "packets_per_sec"), 200.0);
  EXPECT_EQ(traj::number_field(entry, "sharded_packets_per_sec"), -1.0);
  EXPECT_EQ(traj::number_field(entry, "sharded_packets_per_sec", 0.0), 0.0);
  EXPECT_FALSE(traj::has_field(entry, "sharded_packets_per_sec"));
  EXPECT_TRUE(traj::has_field(entry, "packets_per_sec"));
}

TEST(Trajectory, BracesInsideStringsDoNotConfuseMatching) {
  const std::string text = R"([
{ "label": "a } fake { close", "x": 1.0 },
{ "label": "with \" escaped { quote", "x": 2.0 }
])";
  const std::string entry = traj::last_entry(text);
  EXPECT_EQ(traj::number_field(entry, "x"), 2.0);
}

TEST(Trajectory, EmptyAndTruncatedInputs) {
  EXPECT_TRUE(traj::last_entry("").empty());
  EXPECT_TRUE(traj::last_entry("[\n").empty());
  // A truncated trailing object falls back to the last COMPLETE one.
  const std::string text = R"([{"x": 1.0}, {"x": 2.0)";
  EXPECT_EQ(traj::number_field(traj::last_entry(text), "x"), 1.0);
}

TEST(Trajectory, ChecksumMatchesOnlyTheLastEntrysExactValue) {
  const std::string entry = traj::last_entry(R"([{"sum": "00000000000000ff"},
    {"sum": "0000000000000abc", "other": "0000000000000abc1"}])");
  EXPECT_TRUE(traj::checksum_matches(entry, "sum", 0xabc));
  EXPECT_FALSE(traj::checksum_matches(entry, "sum", 0xff));  // older entry
  EXPECT_FALSE(traj::checksum_matches(entry, "other", 0xabc));
  EXPECT_FALSE(traj::checksum_matches(entry, "missing", 0xabc));
}

TEST(Trajectory, RateWithinFailsOnlyBeyondTheBound) {
  EXPECT_TRUE(traj::rate_within("pps", 300.0, 100.0, 2.0));  // faster
  EXPECT_TRUE(traj::rate_within("pps", 100.0, 150.0, 2.0));  // 1.5x slower
  EXPECT_TRUE(traj::rate_within("pps", 100.0, 200.0, 2.0));  // at the bound
  EXPECT_FALSE(traj::rate_within("pps", 100.0, 201.0, 2.0));
}

TEST(Trajectory, LoadLastEntryNeedsAReadableFileWithAnEntry) {
  EXPECT_FALSE(traj::load_last_entry("/nonexistent/BENCH_trajectory.json"));
  const std::string path = testing::TempDir() + "/ronpath_trajectory_test.json";
  for (const char* text : {"[\n", kTwoEntries}) {
    std::ofstream(path) << text;
    const std::optional<std::string> entry = traj::load_last_entry(path.c_str());
    EXPECT_EQ(entry.has_value(), text == kTwoEntries);
    if (entry) {
      EXPECT_EQ(traj::number_field(*entry, "packets_per_sec"), 200.0);
    }
  }
  std::remove(path.c_str());
}

TEST(Trajectory, SingleEntryFile) {
  const std::string entry = traj::last_entry(R"({"only": 7.5})");
  EXPECT_EQ(traj::number_field(entry, "only"), 7.5);
}

}  // namespace
}  // namespace ronpath
