// Ablation: overlay size (DESIGN.md choice #5). Sweeps the number of
// testbed nodes and reports reactive routing's benefit against the
// O(N^2) probing overhead - the scaling trade-off of Section 3.1
// ("larger networks have more paths to explore, but create scaling
// problems").
//
// Scale extensions (DESIGN.md §14): --nodes N pins the sweep to a
// single size (a synthetic hierarchical topology when N exceeds the
// 2003 testbed); --fanout K / --landmarks L run the bandwidth-capped
// overlay instead of the full mesh. All three parse strictly (garbage
// or zero exits 2, the BenchArgs convention).

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "model/overhead.h"

using namespace ronpath;

int main(int argc, char** argv) {
  std::vector<std::size_t> sweep = {5, 10, 18, 30};
  std::size_t fanout = 0;
  std::size_t landmarks = 8;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
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
      sweep = {static_cast<std::size_t>(
          bench::BenchArgs::parse_int("--nodes", next(), 5, 65'000))};
    } else if (arg == "--fanout") {
      fanout = static_cast<std::size_t>(
          bench::BenchArgs::parse_int("--fanout", next(), 1, 65'534));
    } else if (arg == "--landmarks") {
      landmarks = static_cast<std::size_t>(
          bench::BenchArgs::parse_int("--landmarks", next(), 0, 65'534));
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto args = bench::BenchArgs::parse(static_cast<int>(rest.size()), rest.data(),
                                            Duration::hours(10), bench::kDuration);
  const std::size_t testbed_max = testbed_2003().size();

  std::printf("== Ablation: overlay size vs reactive benefit and overhead ==\n");
  if (fanout > 0) std::printf("(capped overlay: fanout %zu, %zu landmarks)\n", fanout, landmarks);
  TextTable t({"nodes", "paths", "direct %", "loss %", "improvement", "mesh totlp %",
               "probe KB/s total"});
  for (std::size_t n : sweep) {
    ExperimentConfig cfg;
    cfg.dataset = Dataset::kRon2003;
    cfg.duration = args.duration;
    cfg.seed = args.seed;
    if (n <= testbed_max) {
      cfg.node_count = n;
    } else {
      cfg.synth_nodes = n;  // beyond the testbed: synthetic hierarchy
    }
    cfg.overlay_fanout = fanout;
    cfg.overlay_landmarks = landmarks;
    const auto res = run_experiment(cfg);

    const double direct =
        res.agg->scheme_stats(PairScheme::kDirectRand).pair.first_loss_percent();
    const double loss = res.agg->scheme_stats(PairScheme::kLoss).pair.total_loss_percent();
    const double mesh = res.agg->scheme_stats(PairScheme::kDirectRand).pair.total_loss_percent();

    ProbeOverheadParams op;
    op.nodes = n;
    t.add_row({TextTable::num(static_cast<std::int64_t>(n)),
               TextTable::num(static_cast<std::int64_t>(n * (n - 1))),
               TextTable::num(direct), TextTable::num(loss),
               TextTable::num(direct > 0 ? 100.0 * (direct - loss) / direct : 0.0, 1) + "%",
               TextTable::num(mesh), TextTable::num(probing_bytes_per_sec(op) / 1e3, 1)});
  }
  t.print(std::cout);
  std::printf("(expected: more nodes -> more alternate paths -> larger reactive and mesh\n"
              " gains, bought with quadratically growing probe traffic)\n");
  return 0;
}
