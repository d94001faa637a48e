// Ablation: link-loss scoring - the paper's last-100-probe window vs an
// EWMA (DESIGN.md choice #4). The window reacts with a fixed ~25-minute
// memory at the 15 s probe rate; an EWMA with comparable steady-state
// memory weights recent probes more, reacting faster to episode onsets
// at the cost of noisier quiet-time estimates (more spurious detours).

#include <iostream>

#include "bench/bench_common.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(12), bench::kDuration);

  std::printf("== Ablation: loss estimator (last-100 window vs EWMA) ==\n");
  TextTable t({"estimator", "direct %", "loss %", "improvement", "loss-tactic lat (ms)"});
  t.set_align(0, TextTable::Align::kLeft);
  for (int use_ewma = 0; use_ewma < 2; ++use_ewma) {
    ExperimentConfig cfg;
    cfg.dataset = Dataset::kRon2003;
    cfg.duration = args.duration;
    cfg.seed = args.seed;
    cfg.use_ewma_loss = use_ewma != 0;
    const auto res = run_experiment(cfg);
    const double direct =
        res.agg->scheme_stats(PairScheme::kDirectRand).pair.first_loss_percent();
    const auto& loss = res.agg->scheme_stats(PairScheme::kLoss);
    const double loss_pct = loss.pair.total_loss_percent();
    t.add_row({use_ewma ? "ewma (alpha 0.03)" : "last-100 window (paper)",
               TextTable::num(direct), TextTable::num(loss_pct),
               TextTable::num(direct > 0 ? 100.0 * (direct - loss_pct) / direct : 0.0, 1) + "%",
               TextTable::num(loss.first_lat_ms.mean(), 1)});
  }
  t.print(std::cout);
  std::printf("(the paper's window is the baseline; EWMA trades quiet-time stability\n"
              " for faster episode detection)\n");
  return 0;
}
