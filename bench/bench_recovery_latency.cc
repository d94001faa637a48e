// Recovery-latency comparison (the paper's Section 2.1 motivation):
// "retransmissions ... result in degraded throughput and increased
// latency. [We] examine loss-resilient routing strategies that do not
// dramatically increase end-to-end round-trip latencies."
//
// Streams packets over a lossy path and compares how long delivery takes
// under: no recovery (direct), end-to-end ARQ (same-path retransmit),
// overlay-assisted ARQ (retransmit on the loss-optimized alternate), and
// 2-redundant mesh routing. The tails tell the story: ARQ recovers
// everything but pays RTO-scale latency on every loss; mesh pays a
// constant 2x bandwidth and keeps the latency distribution tight.

#include <iostream>
#include <limits>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "routing/arq.h"
#include "routing/multipath.h"
#include "util/stats.h"
#include "util/table.h"

using namespace ronpath;

namespace {

struct Row {
  std::string name;
  double delivery_pct = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double overhead = 1.0;
};

NetConfig lossy_profile() {
  NetConfig cfg = NetConfig::profile_2003();
  cfg.loss_scale *= 10.0;  // make losses frequent enough to time
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  int packets = 150'000;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--packets") {
      packets = static_cast<int>(bench::BenchArgs::parse_int("--packets", next(), 1, 100000000));
    } else if (a == "--seed") {
      seed = static_cast<std::uint64_t>(bench::BenchArgs::parse_int(
          "--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (a == "--quick") {
      packets = 30'000;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }

  std::printf("== Recovery latency: direct vs ARQ vs overlay-ARQ vs mesh ==\n");
  std::vector<Row> rows;

  for (int strategy = 0; strategy < 4; ++strategy) {
    const Topology topo = testbed_2003();
    Rng rng(seed);
    Scheduler sched;
    Network net(topo, lossy_profile(), Duration::hours(5), rng.fork("net"));
    OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
    overlay.start();
    sched.run_until(TimePoint::epoch() + Duration::minutes(40));

    const NodeId src = *topo.find("UCSD");
    const NodeId dst = *topo.find("Korea");
    const Duration step = Duration::millis(25);

    Row row;
    if (strategy == 0 || strategy == 3) {
      // Direct / mesh via MultipathSender.
      MultipathSender sender(overlay, rng.fork("sender"));
      const PairScheme scheme =
          strategy == 0 ? PairScheme::kDirect : PairScheme::kDirectRand;
      row.name = strategy == 0 ? "direct (no recovery)" : "2-redundant mesh";
      row.overhead = strategy == 0 ? 1.0 : 2.0;
      EmpiricalCdf lat;
      std::int64_t delivered = 0;
      for (int i = 0; i < packets; ++i) {
        const TimePoint t = sched.now() + step;
        sched.run_until(t);
        const auto out = sender.send(scheme, src, dst, t);
        if (out.any_delivered()) {
          ++delivered;
          lat.add((out.first_arrival() - t).to_millis_f());
        }
      }
      row.delivery_pct = 100.0 * static_cast<double>(delivered) / packets;
      row.mean_ms = lat.mean();
      row.p99_ms = lat.quantile(0.99);
      row.max_ms = lat.max();
    } else {
      ArqConfig cfg;
      cfg.retransmit_on_alternate = strategy == 2;
      row.name = strategy == 1 ? "ARQ (same path)" : "ARQ (alternate retransmit)";
      ArqChannel arq(overlay, sched, src, dst, cfg, rng.fork("arq"));
      for (int i = 0; i < packets; ++i) {
        sched.run_until(sched.now() + step);
        arq.send();
      }
      // Drain outstanding retransmissions.
      sched.run_until(sched.now() + Duration::minutes(5));
      const auto& st = arq.stats();
      row.delivery_pct = 100.0 * st.delivery_rate();
      row.mean_ms = st.delivery_latency_ms.mean();
      row.p99_ms = st.delivery_cdf_ms.empty() ? 0.0 : st.delivery_cdf_ms.quantile(0.99);
      row.max_ms = st.delivery_latency_ms.max();
      row.overhead = st.mean_transmissions();
    }
    rows.push_back(std::move(row));
  }

  TextTable t({"strategy", "delivered %", "mean lat", "p99 lat", "max lat", "overhead"});
  t.set_align(0, TextTable::Align::kLeft);
  for (const auto& r : rows) {
    t.add_row({r.name, TextTable::num(r.delivery_pct, 3), TextTable::num(r.mean_ms, 1) + "ms",
               TextTable::num(r.p99_ms, 1) + "ms",
               TextTable::num(r.max_ms, 0) + "ms", TextTable::num(r.overhead, 3) + "x"});
  }
  t.print(std::cout);
  std::printf("\nexpected: ARQ reaches ~100%% delivery but its latency tail stretches to\n"
              "RTO scale (hundreds of ms to seconds); mesh keeps the tail at path-RTT\n"
              "scale for a flat 2x cost - the paper's case for loss-resilient routing\n"
              "that does not 'dramatically increase end-to-end latencies'.\n");
  return 0;
}
