// Scale benchmark: the bandwidth-capped overlay at 30 / 300 / 3000
// nodes (DESIGN.md §14).
//
// Each tier runs one fault-matrix cell (canonical link-flap scenario,
// hybrid scheme) on the synthetic hierarchical topology with the capped
// link-state overlay, and reports
//
//   fidelity   : per-phase loss and failover time from the finished
//                cell — the Table-5-calibrated behaviour must survive
//                the capped control plane at every size;
//   throughput : wall clock, underlay packets/sec and scheduler
//                events/sec for the whole cell;
//   control    : per-node control-plane bytes/sec from the overlay's
//                ControlMeters. The rotation schedule bounds each
//                node's announce rate by its fanout, so this column
//                must stay flat (within 2x) from 30 to 3000 nodes —
//                the bench exits 1 when it does not;
//   memory     : OverlayNetwork::state_bytes() (resident overlay state,
//                O(n*fanout)), underlay components built (those some
//                packet traversed) out of the n*(n-1)+4n total, and the
//                process VmHWM peak RSS read from /proc/self/status
//                (cumulative across tiers; 0 off Linux).
//
// Fanout 0 and fanout >= n-1 both give the full mesh on one overlay code
// path; ctest's CappedOverlay.FullFanoutBitwiseEquivalentToLegacyMesh
// checks that their reports are byte-identical, so no tier here
// re-runs a full mesh.
//
// Every run is a fixed-seed pure function, so per-tier report checksums
// must agree across --reps; only wall clock may vary (best rep wins).
// Results are emitted as a flat JSON object (the entry shape of
// BENCH_scale.json); --compare reads the committed trajectory and exits
// 1 when packets/sec or events/sec of any tier measured this run
// regressed by more than --max-regress x against the LAST entry (tiers
// absent on either side are skipped). A default-shaped run (not --quick,
// seed 42, the entry's fanout and landmarks) also exits 1 with CHECKSUM
// DRIFT when a tier's report checksum differs from the entry's.
//
// Usage:
//   bench_scale [--nodes N[,N...]] [--fanout K] [--landmarks L]
//               [--seed S] [--reps N] [--label NAME] [--quick]
//               [--out PATH] [--compare BENCH_scale.json] [--max-regress F]

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/world.h"
#include "util/trajectory.h"

namespace ronpath {
namespace {

using bench::BenchArgs;

// The seed every committed BENCH_scale.json entry ran with.
constexpr std::uint64_t kDefaultSeed = 42;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses a comma-separated tier list ("30,300,3000"), each strict.
std::vector<std::size_t> parse_tiers(const char* text) {
  std::vector<std::size_t> tiers;
  const std::string s = text;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string tok = s.substr(pos, comma - pos);
    // NodeId is 16-bit with two sentinel values; 65'000 leaves headroom.
    tiers.push_back(
        static_cast<std::size_t>(BenchArgs::parse_int("--nodes", tok.c_str(), 8, 65'000)));
    pos = comma + 1;
    if (comma == s.size()) break;
  }
  return tiers;
}

// VmHWM (peak resident set) in kB from /proc/self/status; 0 when
// unavailable. Cumulative for the process, so tiers should run
// smallest-first for a meaningful per-tier reading.
std::int64_t peak_rss_kb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::int64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  return 0;
#endif
}

struct TierResult {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double packets_per_sec = 0.0;
  double events_per_sec = 0.0;
  std::int64_t packets = 0;
  std::uint64_t events = 0;
  double control_bps_per_node = 0.0;
  std::int64_t suppressed = 0;
  std::size_t state_bytes = 0;
  std::size_t materialized = 0;
  std::size_t components = 0;
  std::int64_t vm_hwm_kb = 0;
  FaultCell cell;
  std::uint64_t report_checksum = 0;
};

FaultMatrixConfig tier_config(std::size_t nodes, std::size_t fanout, std::size_t landmarks,
                              std::uint64_t seed, bool quick) {
  FaultMatrixConfig cfg;
  cfg.seed = seed;
  cfg.synth_nodes = nodes;
  cfg.overlay_fanout = std::min(fanout, nodes - 1);
  cfg.overlay_landmarks = std::min(landmarks, nodes);
  if (quick) cfg.measured = Duration::minutes(10);
  return cfg;
}

// Runs one cell and fills every column. The Scenario comes from the
// canonical set, so its fault window sits inside the default
// warmup+measured span at any size (faults reference nodes 0..3).
TierResult run_tier(const Scenario& scenario, const FaultMatrixConfig& cfg) {
  TierResult r;
  r.nodes = cfg.synth_nodes;

  const double t0 = now_seconds();
  SimWorld world(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  world.run_to_end();
  r.wall_s = now_seconds() - t0;

  r.packets = world.network().stats().transmitted;
  r.events = world.scheduler().dispatched_events();
  r.packets_per_sec = static_cast<double>(r.packets) / r.wall_s;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;

  const OverlayNetwork& overlay = world.overlay();
  std::int64_t control_bytes = 0;
  for (NodeId i = 0; i < static_cast<NodeId>(r.nodes); ++i) {
    const ControlMeter& m = overlay.control_meter(i);
    control_bytes += m.total_bytes;
    r.suppressed += m.suppressed;
  }
  const double sim_seconds =
      static_cast<double>((cfg.warmup + cfg.measured).count_nanos()) / 1e9;
  r.control_bps_per_node =
      static_cast<double>(control_bytes) / static_cast<double>(r.nodes) / sim_seconds;
  r.state_bytes = overlay.state_bytes();
  r.materialized = world.network().materialized_components();
  r.components = world.network().component_count();
  r.vm_hwm_kb = peak_rss_kb();
  r.cell = world.cell();
  r.report_checksum = snap::fnv1a(world.report());
  return r;
}

void emit_json(std::FILE* f, const std::vector<TierResult>& tiers, const std::string& label,
               std::size_t fanout, std::size_t landmarks) {
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"ronpath-bench-scale-v1\",\n"
               "  \"label\": \"%s\",\n"
               "  \"fanout\": %zu,\n"
               "  \"landmarks\": %zu",
               label.c_str(), fanout, landmarks);
  for (const TierResult& t : tiers) {
    const auto n = t.nodes;
    std::fprintf(f,
                 ",\n"
                 "  \"wall_s_%zu\": %.2f,\n"
                 "  \"packets_per_sec_%zu\": %.1f,\n"
                 "  \"events_per_sec_%zu\": %.1f,\n"
                 "  \"control_bps_per_node_%zu\": %.2f,\n"
                 "  \"suppressed_%zu\": %lld,\n"
                 "  \"state_bytes_%zu\": %zu,\n"
                 "  \"materialized_components_%zu\": %zu,\n"
                 "  \"total_components_%zu\": %zu,\n"
                 "  \"vm_hwm_kb_%zu\": %lld,\n"
                 "  \"loss_fault_pct_%zu\": %.4f,\n"
                 "  \"failover_s_%zu\": %.3f,\n"
                 "  \"report_checksum_%zu\": \"%016llx\"",
                 n, t.wall_s, n, t.packets_per_sec, n, t.events_per_sec, n,
                 t.control_bps_per_node, n, static_cast<long long>(t.suppressed), n,
                 t.state_bytes, n, t.materialized, n, t.components, n,
                 static_cast<long long>(t.vm_hwm_kb), n, t.cell.loss_fault_pct, n,
                 t.cell.failover_s, n, static_cast<unsigned long long>(t.report_checksum));
  }
  std::fprintf(f, "\n}\n");
}

// `default_shape`: the run used the committed entries' seed and
// duration (seed 42, not --quick), so its checksums are comparable.
int compare_against(const char* path, const std::vector<TierResult>& tiers,
                    double max_regress, bool default_shape, std::size_t fanout,
                    std::size_t landmarks) {
  const std::optional<std::string> entry = traj::load_last_entry(path);
  if (!entry) return 2;
  int rc = 0;
  for (const TierResult& t : tiers) {
    const struct {
      std::string key;
      double measured;
    } checks[] = {
        {"packets_per_sec_" + std::to_string(t.nodes), t.packets_per_sec},
        {"events_per_sec_" + std::to_string(t.nodes), t.events_per_sec},
    };
    for (const auto& c : checks) {
      if (!traj::has_field(*entry, c.key)) continue;  // tier absent in the baseline
      const double committed = traj::number_field(*entry, c.key);
      if (committed <= 0.0 || c.measured <= 0.0) continue;
      if (!traj::rate_within(c.key, c.measured, committed, max_regress)) rc = 1;
    }
  }

  // The report checksums pin what is simulated, not how fast, so they
  // are compared only against a baseline that ran the same cells.
  const bool same_shape = default_shape &&
                          traj::number_field(*entry, "fanout") == static_cast<double>(fanout) &&
                          traj::number_field(*entry, "landmarks") == static_cast<double>(landmarks);
  for (const TierResult& t : tiers) {
    const std::string key = "report_checksum_" + std::to_string(t.nodes);
    // Tiers absent in the baseline are skipped.
    if (same_shape && traj::has_field(*entry, key) &&
        !traj::checksum_matches(*entry, key, t.report_checksum)) {
      rc = 1;
    }
  }
  return rc;
}

int run(int argc, char** argv) {
  std::vector<std::size_t> tiers;
  std::size_t fanout = 16;
  std::size_t landmarks = 8;
  std::uint64_t seed = kDefaultSeed;
  int reps = 1;
  bool quick = false;
  std::string label = "run";
  std::string out_path;
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
    if (arg == "--nodes") {
      tiers = parse_tiers(next());
    } else if (arg == "--fanout") {
      fanout = static_cast<std::size_t>(BenchArgs::parse_int("--fanout", next(), 1, 65'534));
    } else if (arg == "--landmarks") {
      landmarks = static_cast<std::size_t>(BenchArgs::parse_int("--landmarks", next(), 0, 65'534));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(
          BenchArgs::parse_int("--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--reps") {
      reps = static_cast<int>(BenchArgs::parse_int("--reps", next(), 1, 100));
    } else if (arg == "--quick") {
      quick = true;
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
      std::printf("usage: %s [--nodes N[,N...]] [--fanout K] [--landmarks L] [--seed S] "
                  "[--reps N] [--label NAME] [--quick] [--out PATH] [--compare FILE] "
                  "[--max-regress F]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (tiers.empty()) tiers = quick ? std::vector<std::size_t>{30, 300}
                                   : std::vector<std::size_t>{30, 300, 3000};
  std::sort(tiers.begin(), tiers.end());  // smallest first: VmHWM is cumulative

  const Scenario* scenario = find_scenario("link-flap");
  if (scenario == nullptr) {
    std::fprintf(stderr, "canonical scenario \"link-flap\" is missing\n");
    return 2;
  }

  std::vector<TierResult> results;
  for (const std::size_t n : tiers) {
    const FaultMatrixConfig cfg = tier_config(n, fanout, landmarks, seed, quick);
    TierResult best = run_tier(*scenario, cfg);
    for (int rep = 1; rep < reps; ++rep) {
      TierResult cur = run_tier(*scenario, cfg);
      if (cur.report_checksum != best.report_checksum) {
        std::fprintf(stderr, "%zu nodes: report checksum mismatch across reps: "
                             "benchmark is nondeterministic\n", n);
        return 2;
      }
      if (cur.wall_s < best.wall_s) {
        const std::int64_t hwm = best.vm_hwm_kb;  // keep the first peak reading
        best = cur;
        best.vm_hwm_kb = hwm;
      }
    }
    std::printf("%5zu nodes: %7.2fs wall, %10.1f pkt/s, %10.1f ev/s, "
                "%7.2f control B/s/node, %zu KiB overlay state, %zu/%zu components, "
                "loss(fault) %.2f%%, failover %.2fs, checksum %016llx\n",
                n, best.wall_s, best.packets_per_sec, best.events_per_sec,
                best.control_bps_per_node, best.state_bytes / 1024, best.materialized,
                best.components, best.cell.loss_fault_pct,
                best.cell.failover_s, static_cast<unsigned long long>(best.report_checksum));
    results.push_back(best);
  }

  // The point of the cap: per-node control bandwidth must not grow with
  // the overlay. Flat within 2x across tiers or the bench fails.
  if (results.size() >= 2) {
    double lo = results.front().control_bps_per_node;
    double hi = lo;
    for (const TierResult& t : results) {
      lo = std::min(lo, t.control_bps_per_node);
      hi = std::max(hi, t.control_bps_per_node);
    }
    std::printf("control-bandwidth spread across tiers: %.2fx\n", lo > 0.0 ? hi / lo : 0.0);
    if (lo <= 0.0 || hi / lo > 2.0) {
      std::fprintf(stderr, "FAIL: per-node control bandwidth is not flat across tiers "
                           "(%.2f .. %.2f B/s/node)\n", lo, hi);
      return 1;
    }
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open \"%s\" for writing: %s\n", out_path.c_str(),
                   std::strerror(errno));
      return 2;
    }
    emit_json(f, results, label, fanout, landmarks);
    std::fclose(f);
  } else {
    emit_json(stdout, results, label, fanout, landmarks);
  }

  if (compare_path) {
    return compare_against(compare_path, results, max_regress, !quick && seed == kDefaultSeed,
                           fanout, landmarks);
  }
  return 0;
}

}  // namespace
}  // namespace ronpath

int main(int argc, char** argv) { return ronpath::run(argc, argv); }
