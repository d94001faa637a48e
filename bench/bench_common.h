// Shared helpers for the table/figure bench binaries.
//
// Every bench accepts:
//   --seed S               RNG seed
//   --quick                very short run (CI smoke)
// and, when it reads them (BenchFlag; any other flag exits 2):
//   --hours H / --days D   measured duration (default: bench-specific)
//   --trials N             independent realizations (default 1)
//   --jobs J               worker threads for the trials (default 1)
//   --csv PATH             also dump machine-readable series
//   --fault-scenario NAME|FILE  scripted fault schedule
// and prints the paper table/figure it reproduces alongside the paper's
// published values where applicable. With --trials > 1 the loss tables
// carry mean±95%-CI cells (core/trials.h); with the default --trials 1
// the output is unchanged from the historical single-run benches.

#ifndef RONPATH_BENCH_COMMON_H_
#define RONPATH_BENCH_COMMON_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/trials.h"
#include "fault/fault.h"
#include "fault/scenarios.h"
#include "measure/report.h"
#include "util/table.h"

namespace ronpath::bench {

// The optional flags a bench reads. BenchArgs::parse rejects every flag
// outside its caller's set as an unknown argument.
enum BenchFlag : unsigned {
  kDuration = 1u << 0,       // --hours H / --days D
  kTrials = 1u << 1,         // --trials N / --jobs J
  kCsv = 1u << 2,            // --csv PATH
  kFaultScenario = 1u << 3,  // --fault-scenario NAME|FILE
};

struct BenchArgs {
  Duration duration = Duration::hours(24);
  std::uint64_t seed = 42;
  int trials = 1;
  int jobs = 1;
  std::string csv_path;
  bool quick = false;
  // --fault-scenario: the argument as given (name or path) and the
  // resolved, validated fault-DSL text (empty = no injection).
  std::string fault_scenario;
  std::string fault_dsl;

  [[nodiscard]] bool multi_trial() const { return trials > 1; }

  // Strict integer parsing: the whole token must be a number. atoll-style
  // silent zeroes ("--hours x" running a 0-hour experiment) are rejected.
  static std::int64_t parse_int(const char* flag, const char* text, std::int64_t min_value,
                                std::int64_t max_value) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "%s: expected an integer, got \"%s\"\n", flag, text);
      std::exit(2);
    }
    if (errno == ERANGE || v < min_value || v > max_value) {
      std::fprintf(stderr, "%s: value %lld out of range [%lld, %lld]\n", flag, v,
                   static_cast<long long>(min_value), static_cast<long long>(max_value));
      std::exit(2);
    }
    return v;
  }

  // Strict floating-point parsing, same contract as parse_int: the whole
  // token must be a finite number inside [min_value, max_value]. Guards
  // the --max-regress CI gates, where strtod's silent 0.0 on garbage
  // would turn a typo into an always-failing (or disabled) threshold.
  static double parse_double(const char* flag, const char* text, double min_value,
                             double max_value) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "%s: expected a number, got \"%s\"\n", flag, text);
      std::exit(2);
    }
    if (errno == ERANGE || !std::isfinite(v) || v < min_value || v > max_value) {
      std::fprintf(stderr, "%s: value %g out of range [%g, %g]\n", flag, v, min_value,
                   max_value);
      std::exit(2);
    }
    return v;
  }

  // Resolves a --fault-scenario argument: a canonical scenario name
  // (fault/scenarios.h), else a path to a fault-DSL file. Strict like
  // parse_int: unknown names, unreadable files and DSL errors exit 2.
  static std::string load_fault_dsl(const char* arg) {
    if (const Scenario* s = find_scenario(arg)) return std::string(s->dsl);
    std::ifstream in(arg);
    if (!in) {
      std::fprintf(stderr, "--fault-scenario: \"%s\" is neither a canonical scenario nor a "
                           "readable file; known scenarios:\n", arg);
      for (const Scenario& s : canonical_scenarios()) {
        std::fprintf(stderr, "  %s\n", std::string(s.name).c_str());
      }
      std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string parse_error;
    if (!FaultSchedule::parse(text.str(), &parse_error)) {
      std::fprintf(stderr, "--fault-scenario %s: %s\n", arg, parse_error.c_str());
      std::exit(2);
    }
    return text.str();
  }

  // Applies the parsed --fault-scenario (if any) to an experiment:
  // schedule injection plus the graceful-degradation control plane.
  void apply_fault(ExperimentConfig& cfg) const {
    if (fault_dsl.empty()) return;
    cfg.fault_dsl = fault_dsl;
    cfg.graceful_degradation = true;
  }

  // --quick sets the duration to `quick_duration`; a later --hours or
  // --days overrides it.
  static BenchArgs parse(int argc, char** argv, Duration default_duration, unsigned flags,
                         Duration quick_duration = Duration::hours(2)) {
    BenchArgs a;
    a.duration = default_duration;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--hours" && (flags & kDuration)) {
        a.duration = Duration::hours(parse_int("--hours", next(), 1, 24 * 365));
      } else if (arg == "--days" && (flags & kDuration)) {
        a.duration = Duration::days(parse_int("--days", next(), 1, 365));
      } else if (arg == "--seed") {
        a.seed = static_cast<std::uint64_t>(
            parse_int("--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
      } else if (arg == "--trials" && (flags & kTrials)) {
        a.trials = static_cast<int>(parse_int("--trials", next(), 1, 100000));
      } else if (arg == "--jobs" && (flags & kTrials)) {
        a.jobs = static_cast<int>(parse_int("--jobs", next(), 1, 1024));
      } else if (arg == "--csv" && (flags & kCsv)) {
        a.csv_path = next();
      } else if (arg == "--fault-scenario" && (flags & kFaultScenario)) {
        a.fault_scenario = next();
        a.fault_dsl = load_fault_dsl(a.fault_scenario.c_str());
      } else if (arg == "--quick") {
        a.quick = true;
        a.duration = quick_duration;
      } else if (arg == "--help") {
        std::printf("usage: %s%s [--seed S]%s%s%s [--quick]\n", argv[0],
                    (flags & kDuration) ? " [--hours H|--days D]" : "",
                    (flags & kTrials) ? " [--trials N] [--jobs J]" : "",
                    (flags & kCsv) ? " [--csv PATH]" : "",
                    (flags & kFaultScenario) ? " [--fault-scenario NAME|FILE]" : "");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return a;
  }
};

// Opens `path` for writing or exits 2 with a diagnostic. Benches must
// fail loudly when a --csv/--out path is unwritable instead of printing
// the table and silently dropping the file.
inline void open_output_or_die(std::ofstream& os, const std::string& path) {
  os.open(path);
  if (!os) {
    std::fprintf(stderr, "cannot open \"%s\" for writing: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(2);
  }
}

// Renders a loss table (Table 5 / Table 7 shape).
inline void print_loss_table(const std::vector<LossTableRow>& rows, bool round_trip) {
  std::cout << render_loss_table(rows, round_trip);
}

inline void print_loss_table_ci(const std::vector<LossTableRowCi>& rows, bool round_trip) {
  std::cout << render_loss_table_ci(rows, round_trip);
}

inline void print_run_banner(const char* title, const ExperimentResult& res,
                             const BenchArgs& args) {
  std::printf("== %s ==\n", title);
  std::printf("measured %s (seed %llu): %lld probes, %lld overlay probes, %llu events\n",
              res.measured.to_string().c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(res.probes), static_cast<long long>(res.overlay_probes),
              static_cast<unsigned long long>(res.events));
}

inline void print_trials_banner(const char* title, const TrialsResult& trials,
                                const BenchArgs& args) {
  std::printf("== %s ==\n", title);
  std::int64_t probes = 0;
  std::uint64_t events = 0;
  for (const auto& t : trials.trials) {
    probes += t.result.probes;
    events += t.result.events;
  }
  std::printf("%zu trials x %s (base seed %llu, %d jobs): %lld probes, %llu events | "
              "wall %.2fs, serial %.2fs, speedup %.2fx\n",
              trials.trials.size(),
              trials.trials.empty() ? "?" : trials.trials[0].result.measured.to_string().c_str(),
              static_cast<unsigned long long>(args.seed), args.jobs,
              static_cast<long long>(probes), static_cast<unsigned long long>(events),
              trials.wall_seconds, trials.serial_seconds, trials.speedup());
}

// CSV rows for a cross-trial table, plus one "meta" row recording the
// trial count, job count, and observed wall-clock speedup so bench
// trajectories can track scaling over time.
inline void csv_loss_table_ci(CsvWriter& csv, const char* dataset,
                              const std::vector<LossTableRowCi>& rows) {
  for (const auto& r : rows) {
    csv.row({dataset, r.name, TextTable::num(r.lp1.mean), TextTable::num(r.lp1.ci95_half),
             r.lp2 ? TextTable::num(r.lp2->mean) : "", r.lp2 ? TextTable::num(r.lp2->ci95_half) : "",
             TextTable::num(r.totlp.mean), TextTable::num(r.totlp.ci95_half),
             r.clp ? TextTable::num(r.clp->mean) : "", r.clp ? TextTable::num(r.clp->ci95_half) : "",
             TextTable::num(r.lat_ms.mean), TextTable::num(r.lat_ms.ci95_half),
             TextTable::num(r.samples_total)});
  }
}

inline void csv_trials_meta(CsvWriter& csv, const BenchArgs& args, const TrialsResult& trials) {
  csv.row({"meta", "trials", TextTable::num(static_cast<std::int64_t>(trials.trials.size()))});
  csv.row({"meta", "jobs", TextTable::num(static_cast<std::int64_t>(args.jobs))});
  csv.row({"meta", "wall_seconds", TextTable::num(trials.wall_seconds, 3)});
  csv.row({"meta", "serial_seconds", TextTable::num(trials.serial_seconds, 3)});
  csv.row({"meta", "speedup", TextTable::num(trials.speedup(), 3)});
}

}  // namespace ronpath::bench

#endif  // RONPATH_BENCH_COMMON_H_
