// Workload benchmark: the traffic-matrix layer end to end.
//
// Runs the full workload matrix — every redundancy policy (probe-only /
// static-2x / adaptive) through every canonical fault scenario — with
// the reference WorkloadSpec, and prints the per-class report: p50/p99/
// p999 one-way latency, loss, MOS, SLO attainment, redundancy overhead
// and controller switches, plus the cross-policy SLO-attainment matrix.
//
// The matrix is a pure function of (config, seed): the report is
// byte-identical at any --jobs, and its FNV-1a checksum is emitted in
// the JSON entry so CI pins simulation behaviour, not just throughput.
//
// The headline claim is checked, not just printed: the run exits 1
// unless the adaptive policy strictly beats BOTH static policies on at
// least one (scenario, class) SLO-attainment column. --compare reads
// the committed BENCH_workload.json trajectory and exits 1 when
// packets/sec regressed by more than --max-regress x against the LAST
// entry (and when the baseline row ran the same shape, on any report
// checksum drift).
//
// Usage:
//   bench_workload [--quick] [--seed S] [--jobs J] [--spec FILE]
//                  [--label NAME] [--out PATH]
//                  [--compare BENCH_workload.json] [--max-regress F]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "util/trajectory.h"
#include "workload/matrix.h"

namespace ronpath {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  bool quick = false;
  std::int64_t cells = 0;
  std::int64_t packets = 0;  // application packets across all cells
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
  // (scenario, class) columns where adaptive strictly beats both static
  // policies — the bench's reason to exist; must be >= 1.
  int adaptive_wins = 0;
  std::uint64_t report_checksum = 0;
};

void emit_json(std::FILE* f, const Result& r, const std::string& label) {
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"ronpath-bench-workload-v1\",\n"
               "  \"label\": \"%s\",\n"
               "  \"quick\": %d,\n"
               "  \"cells\": %lld,\n"
               "  \"packets\": %lld,\n"
               "  \"wall_s\": %.2f,\n"
               "  \"packets_per_sec\": %.1f,\n"
               "  \"adaptive_wins\": %d,\n"
               "  \"report_checksum\": \"%016llx\"\n"
               "}\n",
               label.c_str(), r.quick ? 1 : 0, static_cast<long long>(r.cells),
               static_cast<long long>(r.packets), r.wall_s, r.packets_per_sec, r.adaptive_wins,
               static_cast<unsigned long long>(r.report_checksum));
}

int compare_against(const char* path, const Result& r, double max_regress) {
  const std::optional<std::string> entry = traj::load_last_entry(path);
  if (!entry) return 2;

  int rc = 0;
  const double committed = traj::number_field(*entry, "packets_per_sec");
  if (committed <= 0.0) {
    std::fprintf(stderr, "--compare: no packets_per_sec in the last entry of %s\n", path);
    return 2;
  }
  if (!traj::rate_within("packets_per_sec", r.packets_per_sec, committed, max_regress)) rc = 1;

  // The report checksum pins what is simulated, not how fast — but only
  // when the baseline row ran the same shape (quick mode changes the workload).
  const bool same_shape =
      traj::number_field(*entry, "quick") == (r.quick ? 1.0 : 0.0) &&
      static_cast<std::int64_t>(traj::number_field(*entry, "packets")) == r.packets;
  if (same_shape && !traj::checksum_matches(*entry, "report_checksum", r.report_checksum)) {
    rc = 1;
  }
  return rc;
}

int run(int argc, char** argv) {
  using bench::BenchArgs;

  WorkloadConfig cfg;
  cfg.spec = WorkloadSpec::defaults();
  std::uint64_t seed = 42;
  int jobs = 1;
  bool quick = false;
  std::string label = "run";
  std::string out_path;
  std::string spec_path;
  const char* compare_path = nullptr;
  double max_regress = 2.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(BenchArgs::parse_int(
          "--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(BenchArgs::parse_int("--jobs", next(), 1, 1024));
    } else if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--label") {
      label = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--compare") {
      compare_path = next();
    } else if (arg == "--max-regress") {
      max_regress = BenchArgs::parse_double("--max-regress", next(),
                                            std::numeric_limits<double>::min(), 1e6);
    } else if (arg == "--help") {
      std::printf("usage: %s [--quick] [--seed S] [--jobs J] [--spec FILE] [--label NAME] "
                  "[--out PATH] [--compare FILE] [--max-regress F]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "--spec: cannot read \"%s\": %s\n", spec_path.c_str(),
                   std::strerror(errno));
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parse_error;
    const std::optional<WorkloadSpec> parsed = WorkloadSpec::parse(text.str(), &parse_error);
    if (!parsed) {
      std::fprintf(stderr, "--spec %s: %s\n", spec_path.c_str(), parse_error.c_str());
      return 2;
    }
    cfg.spec = *parsed;
  }

  // Quick mode cannot shorten the timeline — the canonical fault windows
  // sit at fixed absolute times — so it thins the user population
  // instead: same scenarios, same phases, ~4x fewer application packets.
  if (quick) {
    cfg.spec.population = cfg.spec.population / 4.0;
  }

  const std::span<const Scenario> scenarios = canonical_scenarios();

  const double t0 = now_seconds();
  const WorkloadMatrixResult result = run_workload_matrix(cfg, scenarios, seed, jobs);
  const double wall = now_seconds() - t0;

  const std::string report = format_workload_matrix(result, scenarios);
  std::fputs(report.c_str(), stdout);

  Result r;
  r.quick = quick;
  r.cells = static_cast<std::int64_t>(result.cells.size());
  for (const WorkloadCell& cell : result.cells) {
    for (const ClassCell& cc : cell.classes) {
      r.packets += static_cast<std::int64_t>(cc.sent);
    }
  }
  r.wall_s = wall;
  r.packets_per_sec = wall > 0.0 ? static_cast<double>(r.packets) / wall : 0.0;
  r.report_checksum = snap::fnv1a(report);

  const std::span<const WorkloadPolicy> policies = all_workload_policies();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const WorkloadCell& probe = result.cells[s * policies.size()];
    const WorkloadCell& mesh = result.cells[s * policies.size() + 1];
    const WorkloadCell& adaptive = result.cells[s * policies.size() + 2];
    for (std::size_t c = 0; c < kServiceClassCount; ++c) {
      if (adaptive.classes[c].slo_pct > probe.classes[c].slo_pct &&
          adaptive.classes[c].slo_pct > mesh.classes[c].slo_pct) {
        ++r.adaptive_wins;
      }
    }
  }

  std::printf("\nwall %.2fs | %lld app packets | %.1f packets/sec | adaptive wins %d/%zu "
              "SLO columns | report checksum %016llx\n",
              r.wall_s, static_cast<long long>(r.packets), r.packets_per_sec, r.adaptive_wins,
              scenarios.size() * kServiceClassCount,
              static_cast<unsigned long long>(r.report_checksum));

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open \"%s\" for writing: %s\n", out_path.c_str(),
                   std::strerror(errno));
      return 2;
    }
    emit_json(f, r, label);
    std::fclose(f);
  } else {
    emit_json(stdout, r, label);
  }

  if (r.adaptive_wins < 1) {
    std::fprintf(stderr, "FAIL: adaptive does not strictly beat both static policies on any "
                         "(scenario, class) SLO-attainment column\n");
    return 1;
  }

  if (compare_path) return compare_against(compare_path, r, max_regress);
  return 0;
}

}  // namespace
}  // namespace ronpath

int main(int argc, char** argv) { return ronpath::run(argc, argv); }
