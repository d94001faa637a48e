// Hot-path microbenchmark: the per-packet core, measured in isolation.
//
// Fixed-seed, fixed-iteration workloads:
//   packets/sec : Network::transmit over a probe-like stream on the full
//                 2003 testbed (mixed direct / one-hop paths, mixed
//                 data / probe traffic, roughly-monotone send times)
//   events/sec  : Scheduler throughput - self-rescheduling chains plus a
//                 cancellation mix (the overlay's probe/follow-up shape)
//   ns/sample   : ComponentProcess::sample on a roughly-monotone stream
//                 against a busy component (bursts, episodes, outages,
//                 diurnal modulation, static boosts)
//
// The iteration counts are fixed so the simulated work is identical
// across code versions; only wall-clock changes. Each workload runs
// --reps times (each rep a fresh fixed-seed world, so checksums must
// match exactly across reps) and the best rep is reported, suppressing
// scheduler-noise outliers on shared machines. Results are emitted as
// a flat JSON object (the entry shape of BENCH_hotpath.json). --compare
// reads a committed trajectory file and exits 1 when packets/sec or
// events/sec regressed by more than --max-regress x against the LAST
// entry, so CI catches hot-path regressions without flagging ordinary
// machine-to-machine variance. A run with the default seed and counts
// also exits 1 with CHECKSUM DRIFT when packet_checksum or
// sample_checksum differs from the entry's.
//
// Usage:
//   bench_hotpath [--quick] [--reps N] [--seed S] [--label NAME]
//                 [--out PATH] [--compare BENCH_hotpath.json]
//                 [--max-regress F]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>
#include <limits>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/config.h"
#include "net/loss_process.h"
#include "net/network.h"
#include "util/rng.h"
#include "util/trajectory.h"

namespace ronpath {
namespace {

// The seed every committed BENCH_hotpath.json entry ran with.
constexpr std::uint64_t kDefaultSeed = 42;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Result {
  double packets_per_sec = 0.0;
  double events_per_sec = 0.0;
  double ns_per_sample = 0.0;
  std::int64_t packets = 0;
  std::int64_t events = 0;
  std::int64_t samples = 0;
  // Checksums: the measured work must be bit-identical across versions;
  // any optimization that changes these changed simulation behaviour.
  std::uint64_t packet_checksum = 0;
  std::uint64_t sample_checksum = 0;
};

// --------------------------------------------------------------- packets/sec

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

void bench_packets(Result& r, std::int64_t n, std::uint64_t seed) {
  Topology topo = testbed_2003();
  const auto n_sites = static_cast<NodeId>(topo.size());
  NetConfig cfg = NetConfig::profile_2003(Duration::hours(48));
  Network net(std::move(topo), std::move(cfg), Duration::hours(48), Rng(seed));
  // Build every component before the clock starts, so packets/sec times
  // transmit alone (build order changes no draw).
  for (std::size_t ci = 0; ci < net.component_count(); ++ci) (void)net.component(ci);

  Rng pick(seed ^ 0xb0a710adULL);
  std::uint64_t checksum = 0;
  TimePoint t = TimePoint::epoch() + Duration::seconds(1);

  const double t0 = now_seconds();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto src = static_cast<NodeId>(pick.next_below(n_sites));
    auto dst = src;
    while (dst == src) dst = static_cast<NodeId>(pick.next_below(n_sites));
    PathSpec path{src, dst, kDirectVia};
    if (i % 3 == 0) {  // every third packet rides a one-hop alternate
      auto via = src;
      while (via == src || via == dst) via = static_cast<NodeId>(pick.next_below(n_sites));
      path.via = via;
    }
    const TrafficClass cls = (i % 16 == 0) ? TrafficClass::kProbe : TrafficClass::kData;
    const TransmitResult res = net.transmit(path, t, cls);
    checksum = mix64(checksum, static_cast<std::uint64_t>(res.delivered));
    checksum = mix64(checksum, static_cast<std::uint64_t>(res.cause));
    if (res.delivered) {
      checksum = mix64(checksum, static_cast<std::uint64_t>(res.latency.count_nanos()));
    }
    // Probe-pair shape: back-to-back second copies stay at (almost) the
    // same instant; the stream advances ~10 ms per pair on average.
    t += (i % 2 == 0) ? Duration::micros(10) : Duration::millis(static_cast<std::int64_t>(
                                                   1 + pick.next_below(20)));
  }
  const double dt = now_seconds() - t0;

  r.packets = n;
  r.packets_per_sec = static_cast<double>(n) / dt;
  r.packet_checksum = checksum;
}

// ---------------------------------------------------------------- events/sec

void bench_events(Result& r, std::int64_t n, std::uint64_t seed) {
  Scheduler sched;
  Rng rng(seed ^ 0x5ced5ced5ced5cedULL);
  std::int64_t fired = 0;
  std::vector<EventHandle> cancel_me;
  cancel_me.reserve(64);

  // 64 independent chains: each tick reschedules itself (the ProbeDriver
  // node_tick shape) and every fourth tick schedules+cancels a decoy (the
  // follow-up-timer / ARQ-timeout shape).
  constexpr int kChains = 64;
  std::function<void(int)> tick = [&](int chain) {
    ++fired;
    if (fired % 4 == 0) {
      cancel_me.push_back(
          sched.schedule_after(Duration::millis(500), [&fired] { ++fired; }));
      cancel_me.back().cancel();
      if (cancel_me.size() >= 64) cancel_me.clear();
    }
    sched.schedule_after(Duration::micros(100 + rng.next_below(900)),
                         [&tick, chain] { tick(chain); });
  };

  const double t0 = now_seconds();
  for (int c = 0; c < kChains; ++c) {
    sched.schedule_after(Duration::micros(rng.next_below(1000)), [&tick, c] { tick(c); });
  }
  while (fired < n) {
    if (!sched.step()) break;
  }
  const double dt = now_seconds() - t0;

  r.events = static_cast<std::int64_t>(sched.dispatched_events());
  r.events_per_sec = static_cast<double>(r.events) / dt;
}

// ---------------------------------------------------------------- ns/sample

void bench_samples(Result& r, std::int64_t n, std::uint64_t seed) {
  ComponentParams p;
  p.base_loss = 0.001;
  p.bursts_per_hour = 60.0;
  p.burst_drop_prob = 0.8;
  p.episodes_per_day = 12.0;
  p.episode_mean = Duration::minutes(10);
  p.episode_loss_rate = 0.05;
  p.outages_per_month = 30.0;
  p.outage_mean = Duration::minutes(2);
  p.diurnal_amplitude = 0.35;

  std::vector<StateInterval> boosts;
  for (int i = 0; i < 8; ++i) {
    const TimePoint s = TimePoint::epoch() + Duration::minutes(20 + i * 45);
    boosts.push_back({s, s + Duration::minutes(15), 4.0});
  }
  ComponentProcess cp(p, -71.1, std::move(boosts), Rng(seed ^ 0xc0ffee));

  Rng step(seed ^ 0xface);
  TimePoint t = TimePoint::epoch() + Duration::seconds(1);
  std::uint64_t checksum = 0;

  const double t0 = now_seconds();
  for (std::int64_t i = 0; i < n; ++i) {
    const ComponentSample s = cp.sample(t);
    checksum = mix64(checksum, static_cast<std::uint64_t>(s.drop_prob * 1e12));
    checksum = mix64(checksum, static_cast<std::uint64_t>(s.burst) |
                                   (static_cast<std::uint64_t>(s.episode) << 1) |
                                   (static_cast<std::uint64_t>(s.outage) << 2));
    if (i % 64 == 63) {
      t -= Duration::millis(200);  // roughly-monotone back-jump, within safety
    } else {
      t += Duration::millis(static_cast<std::int64_t>(1 + step.next_below(20)));
    }
  }
  const double dt = now_seconds() - t0;

  r.samples = n;
  r.ns_per_sample = dt * 1e9 / static_cast<double>(n);
  r.sample_checksum = checksum;
}

// ------------------------------------------------------------------ plumbing

void emit_json(std::FILE* f, const Result& r, const std::string& label) {
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"ronpath-bench-hotpath-v1\",\n"
               "  \"label\": \"%s\",\n"
               "  \"packets\": %lld,\n"
               "  \"packets_per_sec\": %.1f,\n"
               "  \"events\": %lld,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"samples\": %lld,\n"
               "  \"ns_per_sample\": %.2f,\n"
               "  \"packet_checksum\": \"%016llx\",\n"
               "  \"sample_checksum\": \"%016llx\"",
               label.c_str(), static_cast<long long>(r.packets), r.packets_per_sec,
               static_cast<long long>(r.events), r.events_per_sec,
               static_cast<long long>(r.samples), r.ns_per_sample,
               static_cast<unsigned long long>(r.packet_checksum),
               static_cast<unsigned long long>(r.sample_checksum));
  std::fprintf(f, "\n}\n");
}

// `default_seed`: the run used the committed entries' seed, so its
// checksums are comparable when the counts match too.
int compare_against(const char* path, const Result& r, double max_regress, bool default_seed) {
  const std::optional<std::string> entry = traj::load_last_entry(path);
  if (!entry) return 2;

  int rc = 0;
  const struct {
    const char* key;
    double measured;
  } checks[] = {
      {"packets_per_sec", r.packets_per_sec},
      {"events_per_sec", r.events_per_sec},
  };
  for (const auto& c : checks) {
    const double committed = traj::number_field(*entry, c.key);
    if (committed <= 0.0) {
      std::fprintf(stderr, "--compare: no %s in the last entry of %s\n", c.key, path);
      return 2;
    }
    if (!traj::rate_within(c.key, c.measured, committed, max_regress)) rc = 1;
  }

  // The checksums pin what is simulated, not how fast, so they are
  // compared only against a baseline that ran the same fixed-seed
  // workload (--quick changes the counts).
  const bool same_shape =
      default_seed &&
      static_cast<std::int64_t>(traj::number_field(*entry, "packets")) == r.packets &&
      static_cast<std::int64_t>(traj::number_field(*entry, "events")) == r.events &&
      static_cast<std::int64_t>(traj::number_field(*entry, "samples")) == r.samples;
  if (same_shape) {
    if (!traj::checksum_matches(*entry, "packet_checksum", r.packet_checksum)) rc = 1;
    if (!traj::checksum_matches(*entry, "sample_checksum", r.sample_checksum)) rc = 1;
  }
  return rc;
}

int run(int argc, char** argv) {
  using bench::BenchArgs;

  std::int64_t n_packets = 400'000;
  std::int64_t n_events = 2'000'000;
  std::int64_t n_samples = 2'000'000;
  std::uint64_t seed = kDefaultSeed;
  int reps = 3;
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
    if (arg == "--quick") {
      n_packets = 60'000;
      n_events = 300'000;
      n_samples = 300'000;
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(
          BenchArgs::parse_int("--seed", next(), 0, std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--reps") {
      reps = static_cast<int>(BenchArgs::parse_int("--reps", next(), 1, 1000));
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
      std::printf("usage: %s [--quick] [--reps N] [--seed S] [--label NAME] [--out PATH] "
                  "[--compare FILE] [--max-regress F]\n",
                  argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  // Best-of-reps: every rep rebuilds the same fixed-seed world, so the
  // checksums must agree bit-for-bit across reps; the best throughput is
  // the closest observation of the code's actual cost on a noisy machine.
  Result r;
  for (int rep = 0; rep < reps; ++rep) {
    Result cur;
    bench_packets(cur, n_packets, seed);
    bench_events(cur, n_events, seed);
    bench_samples(cur, n_samples, seed);
    if (rep == 0) {
      r = cur;
      continue;
    }
    if (cur.packet_checksum != r.packet_checksum || cur.sample_checksum != r.sample_checksum) {
      std::fprintf(stderr, "checksum mismatch across reps: benchmark is nondeterministic\n");
      return 2;
    }
    r.packets_per_sec = std::max(r.packets_per_sec, cur.packets_per_sec);
    r.events_per_sec = std::max(r.events_per_sec, cur.events_per_sec);
    r.ns_per_sample = std::min(r.ns_per_sample, cur.ns_per_sample);
  }

  std::printf("packets/sec : %12.1f  (%lld packets, checksum %016llx)\n", r.packets_per_sec,
              static_cast<long long>(r.packets),
              static_cast<unsigned long long>(r.packet_checksum));
  std::printf("events/sec  : %12.1f  (%lld events)\n", r.events_per_sec,
              static_cast<long long>(r.events));
  std::printf("ns/sample   : %12.2f  (%lld samples, checksum %016llx)\n", r.ns_per_sample,
              static_cast<long long>(r.samples),
              static_cast<unsigned long long>(r.sample_checksum));

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

  if (compare_path) return compare_against(compare_path, r, max_regress, seed == kDefaultSeed);
  return 0;
}

}  // namespace
}  // namespace ronpath

int main(int argc, char** argv) { return ronpath::run(argc, argv); }
