// soak: crash-recovery soak harness for the fault-matrix simulator.
//
// Streams a long fault schedule (a canonical scenario, the built-in
// "day-stream" composite, or a DSL file) through a SimWorld with
// periodic checkpoints. At every checkpoint the runtime invariant
// auditor runs across all layers; at a configurable cadence the world
// is destroyed and restored from the last snapshot (in memory, or
// through real files when --snapshot-dir is given). With --verify an
// uninterrupted twin runs first and the final reports are compared
// byte for byte.
//
// With --workload the same kill/restore loop drives a WorkloadWorld
// (traffic-matrix flows + adaptive redundancy) instead of a SimWorld;
// --policy picks the redundancy policy under test. Each mode rejects the
// flags only the other one reads.
//
// Exit codes: 0 clean; 1 audit violation, report divergence or
// snapshot I/O failure; 2 usage error.
//
//   soak --scenario link-flap --scheme hybrid --hours 24
//        --checkpoint-every 1000 --kill-every 3 --snapshot-dir /tmp/s --verify
//   soak --workload --scenario provider-blackout --policy adaptive --quick --verify

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_matrix.h"
#include "fault/fault.h"
#include "fault/scenarios.h"
#include "snapshot/audit.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "workload/world.h"

using namespace ronpath;

namespace {

// A synthesized day of recurring faults with co-prime periods; the
// checked-in soak test streams the same shape.
constexpr std::string_view kDayStreamDsl =
    "every 2700s down link 0->1 for 120s\n"
    "every 5400s crash node 2 for 300s\n"
    "every 4500s lsa-loss node 0 for 180s\n"
    "every 7200s down site 3 provider for 240s\n"
    "every 1800s flap link 1->0 for 20s\n";

struct SoakOptions {
  std::string scenario = "day-stream";
  FaultScheme scheme = FaultScheme::kHybrid;
  std::uint64_t seed = 42;
  std::size_t nodes = 6;
  Duration measured = Duration::hours(24);
  Duration send_interval = Duration::seconds(10);
  std::size_t checkpoint_every = 1000;  // sends between checkpoints
  std::size_t kill_every = 3;           // kill/restore at every k-th checkpoint (0 = never)
  std::size_t synth_nodes = 0;          // > 0: synthetic hierarchical topology
  std::size_t fanout = 0;               // > 0: bandwidth-capped overlay
  std::size_t landmarks = 8;
  bool audit = true;
  bool verify = false;
  bool workload = false;  // soak a WorkloadWorld instead of a SimWorld
  WorkloadPolicy policy = WorkloadPolicy::kAdaptive;
  std::string snapshot_dir;  // empty = snapshots stay in memory
};

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: soak [COMMON] [--scheme direct|reactive|mesh|hybrid] [--nodes N] [--hours H]\n"
      "            [--send-interval-ms M] [--synth-nodes N] [--fanout K] [--landmarks L]\n"
      "       soak --workload [COMMON] [--policy probe-only|static-2x|adaptive]\n"
      "COMMON: [--scenario NAME|day-stream|FILE] [--seed N] [--checkpoint-every N]\n"
      "        [--kill-every K] [--no-audit] [--snapshot-dir DIR] [--verify] [--quick]\n");
  std::exit(code);
}

std::int64_t parse_int(const char* flag, const char* text, std::int64_t lo, std::int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s: expected an integer in [%lld, %lld], got \"%s\"\n", flag,
                 static_cast<long long>(lo), static_cast<long long>(hi), text);
    std::exit(2);
  }
  return v;
}

WorkloadPolicy parse_policy(const char* text) {
  for (const WorkloadPolicy p : all_workload_policies()) {
    if (to_string(p) == text) return p;
  }
  std::fprintf(stderr, "--policy: unknown policy \"%s\" (want probe-only|static-2x|adaptive)\n",
               text);
  std::exit(2);
}

FaultScheme parse_scheme(const char* text) {
  for (const FaultScheme s : all_fault_schemes()) {
    if (to_string(s) == text) return s;
  }
  std::fprintf(stderr, "--scheme: unknown scheme \"%s\"\n", text);
  std::exit(2);
}

// Flags only the SimWorld soak reads; --policy is the workload soak's.
constexpr std::string_view kSimWorldFlags[] = {
    "--scheme", "--nodes", "--hours", "--send-interval-ms", "--synth-nodes", "--fanout",
    "--landmarks"};

SoakOptions parse_args(int argc, char** argv) {
  SoakOptions opt;
  std::string sim_world_flag;  // first SimWorld-only flag given
  bool policy_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (sim_world_flag.empty() &&
        std::find(std::begin(kSimWorldFlags), std::end(kSimWorldFlags), arg) !=
            std::end(kSimWorldFlags)) {
      sim_world_flag = arg;
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--scheme") {
      opt.scheme = parse_scheme(next());
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          parse_int("--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<std::size_t>(parse_int("--nodes", next(), 3, 16));
    } else if (arg == "--hours") {
      opt.measured = Duration::hours(parse_int("--hours", next(), 1, 24 * 365));
    } else if (arg == "--send-interval-ms") {
      opt.send_interval = Duration::millis(parse_int("--send-interval-ms", next(), 1, 60'000));
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every =
          static_cast<std::size_t>(parse_int("--checkpoint-every", next(), 1, 1'000'000'000));
    } else if (arg == "--kill-every") {
      opt.kill_every = static_cast<std::size_t>(parse_int("--kill-every", next(), 0, 1'000'000));
    } else if (arg == "--synth-nodes") {
      opt.synth_nodes = static_cast<std::size_t>(parse_int("--synth-nodes", next(), 4, 65'000));
    } else if (arg == "--fanout") {
      opt.fanout = static_cast<std::size_t>(parse_int("--fanout", next(), 1, 65'534));
    } else if (arg == "--landmarks") {
      opt.landmarks = static_cast<std::size_t>(parse_int("--landmarks", next(), 0, 65'534));
    } else if (arg == "--no-audit") {
      opt.audit = false;
    } else if (arg == "--snapshot-dir") {
      opt.snapshot_dir = next();
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--workload") {
      opt.workload = true;
    } else if (arg == "--policy") {
      opt.policy = parse_policy(next());
      policy_given = true;
    } else if (arg == "--quick") {
      opt.measured = Duration::minutes(10);
      opt.send_interval = Duration::seconds(1);
      opt.checkpoint_every = 120;
    } else if (arg == "--help") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (opt.workload && !sim_world_flag.empty()) {
    std::fprintf(stderr, "%s: not read by the --workload soak\n", sim_world_flag.c_str());
    usage(2);
  }
  if (!opt.workload && policy_given) {
    std::fprintf(stderr, "--policy: only read by the --workload soak\n");
    usage(2);
  }
  return opt;
}

// Resolves --scenario into a Scenario whose strings outlive the world
// (SimWorld copies them; `storage` keeps the DSL alive for parsing
// diagnostics here).
Scenario resolve_scenario(const SoakOptions& opt, const FaultMatrixConfig& cfg,
                          std::string& storage) {
  if (const Scenario* s = find_scenario(opt.scenario)) return *s;
  Scenario s;
  if (opt.scenario == "day-stream") {
    storage = std::string(kDayStreamDsl);
    s.name = "day-stream";
    s.summary = "built-in recurring fault stream";
  } else {
    std::ifstream in(opt.scenario);
    if (!in) {
      std::fprintf(stderr,
                   "--scenario: \"%s\" is neither a canonical scenario, \"day-stream\", nor a "
                   "readable DSL file; known scenarios:\n",
                   opt.scenario.c_str());
      for (const Scenario& known : canonical_scenarios()) {
        std::fprintf(stderr, "  %s\n", std::string(known.name).c_str());
      }
      std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    storage = text.str();
    s.name = opt.scenario;
    s.summary = "user-supplied fault schedule";
  }
  std::string parse_error;
  if (!FaultSchedule::parse(storage, &parse_error)) {
    std::fprintf(stderr, "--scenario %s: %s\n", opt.scenario.c_str(), parse_error.c_str());
    std::exit(2);
  }
  s.dsl = storage;
  s.fault_start = TimePoint::epoch() + cfg.warmup;
  s.fault_duration = cfg.measured;
  s.routable = true;
  return s;
}

// Audits the world; on violations prints the report and exits 1.
void audit_or_die(const CellRun& world, const SoakOptions& opt, const std::string& where) {
  if (!opt.audit) return;
  std::vector<std::string> violations;
  world.check_invariants(violations);
  if (!violations.empty()) {
    std::fprintf(stderr, "invariant audit failed %s:\n%s", where.c_str(),
                 format_audit(violations).c_str());
    std::exit(1);
  }
}

// How the soak loop names the world it drives and its steps.
struct SoakLabels {
  const char* title;        // "soak" or "workload soak"
  const char* unit;         // one step: "send" or "packet"
  const char* file_prefix;  // snapshot file names under --snapshot-dir
};

// The kill/restore loop over either world. `make` builds a fresh world
// (SimWorld or WorkloadWorld) from the soak's fixed arguments: checkpoint
// every --checkpoint-every steps, kill and restore through the sealed
// envelope at every --kill-every-th checkpoint, and with --verify
// byte-compare the final report against an uninterrupted twin.
template <class Make>
int run_soak(const SoakOptions& opt, const Scenario& scenario, const SoakLabels& labels,
             const std::string& banner, const Make& make) {
  std::string expected;
  if (opt.verify) {
    const auto reference = make();
    reference->run_to_end();
    expected = reference->report();
    std::printf("verify: uninterrupted reference run complete (%zu %ss)\n",
                reference->total_steps(), labels.unit);
  }

  auto world = make();
  const std::size_t total = world->total_steps();
  std::printf("%s: %s, %zu %ss, checkpoint every %zu, kill every %zu%s\n", labels.title,
              banner.c_str(), total, labels.unit, opt.checkpoint_every, opt.kill_every,
              opt.snapshot_dir.empty() ? " (snapshots in memory)" : "");

  std::size_t checkpoints = 0;
  std::size_t kills = 0;
  for (std::size_t next = opt.checkpoint_every; next < total; next += opt.checkpoint_every) {
    const std::string at = std::string(labels.unit) + " " + std::to_string(next);
    world->advance_to(next);
    audit_or_die(*world, opt, "at " + at);
    ++checkpoints;

    snap::Encoder e;
    world->save_state(e);
    const std::uint64_t fp = world->fingerprint();
    std::vector<std::uint8_t> file;
    std::string path;
    if (opt.snapshot_dir.empty()) {
      file = snap::seal(fp, e.bytes());
    } else {
      path = opt.snapshot_dir + "/" + labels.file_prefix + std::string(scenario.name) + "-" +
             std::to_string(next) + ".snap";
      snap::write_file(path, fp, e.bytes());
    }

    if (opt.kill_every != 0 && checkpoints % opt.kill_every == 0) {
      world.reset();  // the crash
      auto restored = make();
      const std::vector<std::uint8_t> payload =
          path.empty() ? snap::unseal(file, restored->fingerprint())
                       : snap::read_file(path, restored->fingerprint());
      snap::Decoder d(payload);
      restored->restore_state(d);
      audit_or_die(*restored, opt, "after restore at " + at);
      world = std::move(restored);
      ++kills;
      std::printf("  killed and restored at %s\n", at.c_str());
    }
  }
  world->run_to_end();
  audit_or_die(*world, opt, "at end of run");

  const std::string report = world->report();
  std::printf("%s", report.c_str());
  std::printf("%s complete: %zu checkpoints, %zu kill/restore cycles%s\n", labels.title,
              checkpoints, kills, opt.audit ? ", audits clean" : "");

  if (opt.verify) {
    if (report != expected) {
      std::fprintf(stderr,
                   "VERIFY FAILED: restored run diverged from the uninterrupted run\n"
                   "--- uninterrupted ---\n%s--- soak ---\n%s",
                   expected.c_str(), report.c_str());
      return 1;
    }
    std::printf("verify: report byte-identical to the uninterrupted run\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakOptions opt = parse_args(argc, argv);
  FaultMatrixConfig cfg;
  cfg.node_count = opt.nodes;
  cfg.seed = opt.seed;
  cfg.measured = opt.measured;
  cfg.send_interval = opt.send_interval;
  cfg.synth_nodes = opt.synth_nodes;
  cfg.overlay_fanout = opt.fanout;
  cfg.overlay_landmarks = opt.landmarks;
  std::string dsl_storage;
  const Scenario scenario = resolve_scenario(opt, cfg, dsl_storage);
  const std::string name(scenario.name);

  try {
    if (opt.workload) {
      WorkloadConfig wcfg;
      wcfg.cell.seed = opt.seed;
      if (opt.measured < wcfg.cell.measured) wcfg.spec.population /= 4.0;  // --quick
      const std::string banner = name + " / " + std::string(to_string(opt.policy));
      return run_soak(opt, scenario, {"workload soak", "packet", "soak-workload-"}, banner, [&] {
        return std::make_unique<WorkloadWorld>(scenario, opt.policy, wcfg, opt.seed);
      });
    }
    const std::string banner =
        name + " / " + std::string(to_string(opt.scheme)) + ", " +
        std::to_string(opt.synth_nodes > 0 ? opt.synth_nodes : opt.nodes) + " nodes";
    return run_soak(opt, scenario, {"soak", "send", "soak-"}, banner, [&] {
      return std::make_unique<SimWorld>(scenario, opt.scheme, cfg, opt.seed);
    });
  } catch (const snap::SnapshotError& err) {
    std::fprintf(stderr, "snapshot error: %s\n", err.what());
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
