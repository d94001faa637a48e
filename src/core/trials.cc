#include "core/trials.h"

#include <chrono>
#include <ctime>
#include <optional>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/parallel.h"

namespace ronpath {
namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double thread_cpu_seconds() {
#ifdef __linux__
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, int trial) {
  if (trial == 0) return base_seed;
  return Rng(base_seed).fork("trial").fork(static_cast<std::uint64_t>(trial)).next_u64();
}

TrialsResult run_experiment_trials(const ExperimentConfig& cfg, int n_trials, int n_jobs) {
  TrialsResult out;
  if (n_trials <= 0) return out;
  // Slots are written by trial index (never completion order), which is
  // what makes the outcome independent of n_jobs.
  std::vector<std::optional<TrialResult>> slots(static_cast<std::size_t>(n_trials));

  const auto start = std::chrono::steady_clock::now();
  for_each_index(
      static_cast<std::size_t>(n_trials), static_cast<std::size_t>(n_jobs > 0 ? n_jobs : 1),
      [&](std::size_t i) {
        ExperimentConfig trial_cfg = cfg;
        trial_cfg.seed = trial_seed(cfg.seed, static_cast<int>(i));
        if (!cfg.record_path.empty() && n_trials > 1) {
          trial_cfg.record_path = cfg.record_path + ".trial" + std::to_string(i);
        }
        const auto trial_start = std::chrono::steady_clock::now();
        const double cpu_start = thread_cpu_seconds();
        ExperimentResult result = run_experiment(trial_cfg);
        const double cpu = thread_cpu_seconds() - cpu_start;
        slots[i] =
            TrialResult{trial_cfg.seed, std::move(result), elapsed_seconds(trial_start), cpu};
      });
  out.wall_seconds = elapsed_seconds(start);
  out.trials.reserve(slots.size());
  for (auto& slot : slots) {
    // Fall back to per-trial wall when thread CPU time is unavailable.
    out.serial_seconds += slot->cpu_seconds > 0.0 ? slot->cpu_seconds : slot->wall_seconds;
    out.trials.push_back(std::move(*slot));
  }
  return out;
}

CrossTrial make_cross_trial(const TrialsResult& trials, std::span<const PairScheme> report_rows,
                            PairScheme base_scheme) {
  CrossTrial ct;
  ct.per_trial_rows.reserve(trials.trials.size());
  std::vector<BaseStats> bases;
  bases.reserve(trials.trials.size());
  for (const auto& t : trials.trials) {
    ct.per_trial_rows.push_back(make_loss_table(*t.result.agg, report_rows));
    bases.push_back(make_base_stats(*t.result.agg, base_scheme));
  }
  ct.rows = make_loss_table_ci(ct.per_trial_rows);
  ct.base = make_base_stats_ci(bases);
  return ct;
}

}  // namespace ronpath
