// Multi-trial experiment runner: N independent realizations of one
// ExperimentConfig, sharded across threads by for_each_index
// (util/parallel.h).
//
// Seed splitting: trial 0 runs under the config's own seed (so a single
// trial reproduces the historical single-run output bit for bit); trial
// i > 0 runs under Rng(cfg.seed).fork("trial").fork(i), which derives
// disjoint xoshiro streams from the (seed, trial) pair the same way every
// simulator component already forks its own stream. The mapping depends
// only on (cfg.seed, i) — never on thread assignment or completion order —
// and results are stored by trial index, so the outcome is bit-identical
// for every n_jobs value.
//
// Each trial owns a private Scheduler / Network / Overlay / Aggregator;
// no simulator state is shared between threads.

#ifndef RONPATH_CORE_TRIALS_H_
#define RONPATH_CORE_TRIALS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/experiment.h"
#include "measure/report.h"

namespace ronpath {

// The derived seed for one trial of a base seed (see header comment).
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed, int trial);

struct TrialResult {
  std::uint64_t seed = 0;
  ExperimentResult result;
  double wall_seconds = 0.0;  // this trial's own elapsed time
  double cpu_seconds = 0.0;   // this trial's thread-CPU time
};

struct TrialsResult {
  std::vector<TrialResult> trials;  // index == trial index
  double wall_seconds = 0.0;        // end-to-end elapsed time
  // Sum of per-trial thread-CPU time: what one thread would have paid.
  // (CPU time, not per-trial wall, so contention on an oversubscribed
  // host does not inflate the estimate.)
  double serial_seconds = 0.0;
  // Observed parallel speedup; ~1.0 when n_jobs == 1.
  [[nodiscard]] double speedup() const {
    return wall_seconds > 0.0 ? serial_seconds / wall_seconds : 1.0;
  }
};

// Runs `n_trials` independent realizations of `cfg` on up to `n_jobs`
// threads (n_jobs <= 1 runs inline on the caller's thread). When
// cfg.record_path is set and n_trials > 1 each trial streams records to
// "<record_path>.trial<i>" so writers never race.
[[nodiscard]] TrialsResult run_experiment_trials(const ExperimentConfig& cfg, int n_trials,
                                                 int n_jobs);

// Cross-trial report: per-row mean +/- 95% CI loss table plus Section 4.2
// base statistics, computed from each trial's private aggregator.
struct CrossTrial {
  std::vector<LossTableRowCi> rows;
  BaseStatsCi base;
  std::vector<std::vector<LossTableRow>> per_trial_rows;  // source tables
};

[[nodiscard]] CrossTrial make_cross_trial(const TrialsResult& trials,
                                          std::span<const PairScheme> report_rows,
                                          PairScheme base_scheme);

}  // namespace ronpath

#endif  // RONPATH_CORE_TRIALS_H_
