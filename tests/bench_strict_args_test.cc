// Strict argument parsing across the bench binaries — the regression
// test for the atoll/strtod bugfix sweep.
//
// Every bench must reject non-numeric --seed (formerly a silent
// std::atoll 0 that quietly changed the experiment) and the perf-gated
// benches must reject non-numeric, non-positive --max-regress (formerly
// a silent strtod 0.0 that turned a typo into an always-failing or
// disabled CI gate). The contract is a hard exit 2 before any work runs.
//
// The benches (and tools/soak) are spawned as real subprocesses,
// located relative to this test binary (build/tests/.. -> build/bench).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

std::string build_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  path.resize(slash);                      // .../build/tests
  const std::size_t parent = path.rfind('/');
  if (parent == std::string::npos) return {};
  return path.substr(0, parent);  // .../build
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && (st.st_mode & S_IXUSR) != 0;
}

// Runs `exe args...` with output discarded; returns the exit status or
// -1 when the process did not exit normally.
int run_bench(const std::string& exe, const std::string& args) {
  const std::string cmd = "'" + exe + "' " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

// `name` is relative to the build tree's bench/ directory.
void expect_rejects(const std::string& name, const std::string& args) {
  const std::string exe = build_dir() + "/bench/" + name;
  ASSERT_TRUE(exists(exe)) << exe << " not built; build all targets before running ctest";
  EXPECT_EQ(run_bench(exe, args), 2) << name << " " << args << ": expected exit 2";
}

// The benches the original atoll sweep fixed, plus the perf benches.
const char* kSeedBenches[] = {
    "bench_hybrid_sweetspot", "bench_ablation_shared_bottleneck", "bench_failover_time",
    "bench_fec_spread",       "bench_recovery_latency",           "bench_ablation_burst_gap",
    "bench_hotpath",          "bench_scale",                      "bench_workload",
    "bench_loss_runs",        "bench_ablation_two_hop",           "bench_table1_testbed",
    "bench_table4_tactics",
};

TEST(BenchStrictArgs, NonNumericSeedExitsTwo) {
  for (const char* name : kSeedBenches) {
    expect_rejects(name, "--seed banana");
    expect_rejects(name, "--seed 12x");
  }
}

TEST(BenchStrictArgs, MissingSeedValueExitsTwo) {
  for (const char* name : kSeedBenches) {
    expect_rejects(name, "--seed");
  }
}

// --max-regress guards a CI gate: garbage, zero and negative thresholds
// must all exit 2 (strtod's silent 0.0 would disable or invert it).
const char* kRegressBenches[] = {"bench_hotpath", "bench_scale", "bench_workload"};

TEST(BenchStrictArgs, NonNumericMaxRegressExitsTwo) {
  for (const char* name : kRegressBenches) {
    expect_rejects(name, "--max-regress abc");
    expect_rejects(name, "--max-regress 1.5x");
  }
}

TEST(BenchStrictArgs, NonPositiveMaxRegressExitsTwo) {
  for (const char* name : kRegressBenches) {
    expect_rejects(name, "--max-regress 0");
    expect_rejects(name, "--max-regress -2");
    expect_rejects(name, "--max-regress inf");
    expect_rejects(name, "--max-regress nan");
  }
}

TEST(BenchStrictArgs, UnknownFlagExitsTwo) {
  for (const char* name : kRegressBenches) {
    expect_rejects(name, "--definitely-not-a-flag");
  }
  // Retired flags, and shared BenchArgs flags the bench never reads.
  for (const char* name : {"bench_hotpath", "bench_workload", "bench_table5_loss"}) {
    expect_rejects(name, "--shards 4");
  }
  expect_rejects("bench_hotpath", "--shard-sweep");
  expect_rejects("bench_scale", "--quick --nodes 30 --no-anchor");
  expect_rejects("bench_fig6_design_space", "--fault-scenario link-flap");
  expect_rejects("bench_fig6_design_space", "--trials 3 --jobs 2");
  expect_rejects("bench_table3_datasets", "--csv /dev/null");
  expect_rejects("bench_fault_matrix", "--hours 3");
  // --quick bounds the run should a bench ever stop rejecting the flag.
  for (const char* name : {"bench_loss_runs", "bench_ablation_two_hop", "bench_table1_testbed",
                           "bench_table4_tactics"}) {
    expect_rejects(name, "--quick --definitely-not-a-flag");
  }
}

// soak runs one of two worlds; a flag only the other world reads must
// exit 2 instead of being silently ignored (a --workload run given
// --synth-nodes 300 used to soak the 12-node testbed and exit 0).
TEST(BenchStrictArgs, SoakRejectsFlagsItsModeIgnores) {
  const std::string exe = build_dir() + "/tools/soak";
  ASSERT_TRUE(exists(exe)) << exe << " not built; build all targets before running ctest";
  const char* cases[] = {
      "--workload --scenario link-flap --policy adaptive --synth-nodes 300 --fanout 16 "
      "--scheme mesh --hours 5 --send-interval-ms 7",
      "--workload --scheme mesh",
      "--workload --nodes 8",
      "--workload --hours 5",
      "--workload --send-interval-ms 7",
      "--workload --synth-nodes 300",
      "--workload --fanout 16",
      "--workload --landmarks 4",
      "--scenario link-flap --policy static-2x",
      "--lazy",  // retired: every underlay component is built on first use
  };
  for (const char* args : cases) {
    EXPECT_EQ(run_bench(exe, std::string("--quick ") + args), 2)
        << "soak --quick " << args << ": expected exit 2";
  }
}

}  // namespace
