// Ablation: path-engine cost versus search depth k.
//
// Sweeps the engine over overlay sizes and relay depths and reports the
// per-query latency and work counters. The interesting scaling story is
// in the counters: round r relaxes only from nodes whose label moved in
// round r-1 (marked-node pruning), so edges_relaxed grows with the
// active frontier rather than k * N^2.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "overlay/link_state.h"
#include "overlay/path_engine.h"
#include "overlay/router.h"
#include "util/rng.h"
#include "util/table.h"

using namespace ronpath;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LinkMetrics random_metrics(Rng& rng) {
  LinkMetrics m;
  m.loss = rng.bernoulli(0.15) ? 0.3 * rng.next_double() : 0.02 * rng.next_double();
  m.latency = Duration::micros(rng.uniform_int(200, 120'000));
  m.has_latency = true;
  m.down = rng.bernoulli(0.02);
  m.samples = 100;
  m.published = TimePoint::epoch();
  return m;
}

// density < 1 leaves entries unpublished (never-probed links), which is
// what makes labels stagnate between rounds: on a sparse mesh most
// nodes' best k-hop path stops improving after the first round or two,
// and the marked-node pruning skips them as relax sources.
LinkStateTable make_table(std::size_t n, double density, Rng& rng) {
  LinkStateTable t(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b && rng.next_double() < density) t.publish(a, b, random_metrics(rng));
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, Duration::zero(), 0);

  std::vector<std::size_t> sizes = {30, 100, 300};
  if (args.quick) sizes = {30, 100};
  const int queries = args.quick ? 2'000 : 20'000;

  std::printf("== Ablation: path-engine cost vs search depth ==\n");
  TextTable out({"nodes", "mesh", "k", "query us", "edges/query", "skip %"});
  out.set_align(0, TextTable::Align::kLeft);
  out.set_align(1, TextTable::Align::kLeft);

  for (const std::size_t n : sizes) {
    for (const double density : {1.0, 0.15}) {
    Rng rng(args.seed + n);
    const LinkStateTable table = make_table(n, density, rng);
    RouterConfig cfg;

    for (int k = 1; k <= 3; ++k) {
      PathEngine engine(table, cfg);
      Rng pick = rng.fork("pick");

      double acc = 0.0;  // defeat dead-code elimination
      const double q0 = now_seconds();
      for (int q = 0; q < queries; ++q) {
        const auto src = static_cast<NodeId>(pick.next_below(n));
        auto dst = static_cast<NodeId>(pick.next_below(n));
        if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
        acc += engine.best_loss(src, dst, k, TimePoint::epoch()).loss;
      }
      const double q1 = now_seconds();
      const double us_per_query = (q1 - q0) * 1e6 / queries;
      const double edges_per_query =
          static_cast<double>(engine.stats().edges_relaxed) / queries;
      // sources_skipped counts stagnation-pruned relax sources. The check
      // applies from round 2 on, where each query's round scans all n
      // candidate sources, so the population is (k - 1) * n per query.
      const auto stagnation_sources =
          static_cast<std::uint64_t>(k - 1) * n * static_cast<std::uint64_t>(queries);
      const double skip_pct =
          stagnation_sources == 0 ? 0.0
                                  : 100.0 * static_cast<double>(engine.stats().sources_skipped) /
                                        static_cast<double>(stagnation_sources);

      out.add_row({std::to_string(n), density < 1.0 ? "sparse" : "dense", std::to_string(k),
                   TextTable::num(us_per_query, 2), TextTable::num(edges_per_query, 1),
                   TextTable::num(skip_pct, 1)});
      (void)acc;
    }
    }
  }
  out.print(std::cout);
  std::printf(
      "\nquery us: best_loss() per query; edges/query tracks the candidate\n"
      "extensions actually evaluated. skip %%: stagnation-pruned relax\n"
      "sources of the queries' rounds 2..k.\n");
  return 0;
}
