// Integration tests: the overlay probing machinery running on the event
// scheduler over the simulated underlay.

#include "overlay/overlay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/testbed.h"
#include "fault/injector.h"
#include "snapshot/codec.h"

namespace ronpath {
namespace {

struct Fixture {
  Topology topo;
  Network net;
  Scheduler sched;
  OverlayNetwork overlay;

  explicit Fixture(OverlayConfig cfg = {}, std::uint64_t seed = 42,
                   Duration horizon = Duration::hours(3))
      : topo(testbed_2002()),
        net(topo, NetConfig::profile_2003(), horizon, Rng(seed)),
        overlay(net, sched, cfg, Rng(seed + 1)) {}
};

TEST(OverlayNetwork, ProbesAllLinks) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::seconds(40));
  // 17 nodes, 272 links, one probe each per 15 s interval (plus startup
  // stagger): after 40 s every link has at least one probe.
  const auto n = static_cast<NodeId>(f.overlay.size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      EXPECT_GE(f.overlay.estimator(a, b).samples(), 1u) << a << "->" << b;
    }
  }
  EXPECT_GE(f.overlay.probes_sent(), 17 * 16 * 2);
}

TEST(OverlayNetwork, EstimatorsSeeLowLossOnQuietNetwork) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(30));
  // Aggregate estimated loss across links should be low (calibrated
  // underlay is ~0.4-1% per round trip).
  double total = 0.0;
  int links = 0;
  const auto n = static_cast<NodeId>(f.overlay.size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      total += f.overlay.estimator(a, b).loss();
      ++links;
    }
  }
  EXPECT_LT(total / links, 0.05);
}

TEST(OverlayNetwork, LatencyEstimatesTrackBaseLatency) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(10));
  const auto n = static_cast<NodeId>(f.overlay.size());
  int checked = 0;
  for (NodeId a = 0; a < n && checked < 40; ++a) {
    for (NodeId b = 0; b < n && checked < 40; ++b) {
      if (a == b) continue;
      const auto& est = f.overlay.estimator(a, b);
      if (est.latency() == Duration::max()) continue;
      const Duration base = f.net.base_latency(PathSpec{a, b, kDirectVia});
      // One-way estimate = RTT/2; symmetric-ish topology keeps it within
      // a factor of the base latency plus queueing.
      EXPECT_GT(est.latency(), base / 3);
      EXPECT_LT(est.latency(), 4 * base + Duration::millis(120));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(OverlayNetwork, RouteTagsProduceValidPaths) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(5));
  for (RouteTag tag : {RouteTag::kDirect, RouteTag::kRand, RouteTag::kLat, RouteTag::kLoss}) {
    for (int i = 0; i < 50; ++i) {
      const PathSpec p = f.overlay.route(0, 5, tag);
      EXPECT_EQ(p.src, 0);
      EXPECT_EQ(p.dst, 5);
      if (!p.is_direct()) {
        EXPECT_LT(p.via, f.overlay.size());
        EXPECT_NE(p.via, p.src);
        EXPECT_NE(p.via, p.dst);
      }
    }
  }
}

TEST(OverlayNetwork, DirectTagAlwaysDirect) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(1));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(f.overlay.route(2, 9, RouteTag::kDirect).is_direct());
  }
}

TEST(OverlayNetwork, RandTagVariesIntermediate) {
  Fixture f;
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(1));
  std::set<NodeId> vias;
  for (int i = 0; i < 200; ++i) {
    const PathSpec p = f.overlay.route(0, 1, RouteTag::kRand);
    if (!p.is_direct()) vias.insert(p.via);
  }
  // With 15 candidate intermediates, 200 draws should hit most of them.
  EXPECT_GE(vias.size(), 10u);
}

TEST(OverlayNetwork, SendOverDeadViaFails) {
  OverlayConfig cfg;
  cfg.host_failures_per_month = 0.0;  // control liveness manually: none
  Fixture f(cfg);
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::minutes(1));
  // With no host failures every send over a live via reflects only the
  // network fate.
  const auto r = f.overlay.send(PathSpec{0, 1, 2}, f.sched.now());
  EXPECT_TRUE(r.via_up);
  EXPECT_TRUE(r.src_up);
}

TEST(OverlayNetwork, HostFailuresPauseProbing) {
  OverlayConfig cfg;
  // Extremely frequent failures so the short test observes them.
  cfg.host_failures_per_month = 4000.0;
  cfg.host_failure_mean = Duration::minutes(20);
  Fixture f(cfg, /*seed=*/7);
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::hours(1));
  // At least one node must have been down at some point in the hour.
  bool saw_down = false;
  for (NodeId node = 0; node < f.overlay.size() && !saw_down; ++node) {
    for (int m = 0; m < 60 && !saw_down; ++m) {
      saw_down = !f.overlay.node_up(node, TimePoint::epoch() + Duration::minutes(m));
    }
  }
  EXPECT_TRUE(saw_down);
}

TEST(OverlayNetwork, ProbeCountMatchesScheduleRate) {
  Fixture f;
  f.overlay.start();
  const Duration runtime = Duration::minutes(10);
  f.sched.run_until(TimePoint::epoch() + runtime);
  // 272 links probed every 15 s for 10 min ~= 10880 probes, modulo
  // startup stagger and host failures.
  const auto expected = 17 * 16 * (runtime / f.overlay.config().probe_interval);
  EXPECT_NEAR(static_cast<double>(f.overlay.probes_sent()), static_cast<double>(expected),
              0.15 * static_cast<double>(expected));
}

// Pending probe ticks and follow-ups call back into the overlay, so
// destroying it cancels them: a scheduler that keeps running dispatches
// nothing more.
TEST(OverlayNetwork, DestructionCancelsPendingProbes) {
  const Topology topo = testbed_2002();
  Network net(topo, NetConfig::profile_2003(), Duration::hours(1), Rng(42));
  Scheduler sched;
  {
    OverlayNetwork overlay(net, sched, OverlayConfig{}, Rng(43));
    overlay.start();
    sched.run_until(TimePoint::epoch() + Duration::seconds(20));
    ASSERT_GT(overlay.probes_sent(), 0);
  }
  const std::uint64_t dispatched = sched.dispatched_events();
  sched.run_until(TimePoint::epoch() + Duration::minutes(5));
  EXPECT_EQ(sched.dispatched_events(), dispatched);
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// An overlay section saved 1 h into a run in which node 0's probes all
// die, so follow-up chains are pending, with the scheduler clock it was
// saved under. The section ends with the probe ticks' re-arm descriptors
// (pending flag, at, seq: 17 bytes each), the follow-up count, and the
// follow-ups' descriptors (src, dst, remaining, at, seq: 40 bytes each),
// all fixed-width little endian.
struct SavedOverlay {
  OverlayConfig cfg;
  TimePoint now;
  std::uint64_t next_seq = 0;
  std::uint64_t dispatched = 0;
  std::vector<std::uint8_t> bytes;
  std::size_t followups = 0;  // pending follow-up descriptors
  std::size_t ticks_end = 0;  // one past the last probe tick's seq
};

SavedOverlay save_with_followups(const OverlayConfig& cfg) {
  SavedOverlay saved;
  saved.cfg = cfg;
  Fixture f(cfg);
  FaultSchedule faults;
  faults.blackhole_probes(0, TimePoint::epoch(), Duration::hours(2));
  const FaultInjector injector(faults, f.topo, Duration::hours(3));
  f.overlay.set_fault_injector(&injector);
  f.overlay.start();
  f.sched.run_until(TimePoint::epoch() + Duration::hours(1));
  snap::Encoder e;
  f.overlay.save_state(e);
  saved.now = f.sched.now();
  saved.next_seq = f.sched.next_seq();
  saved.dispatched = f.sched.dispatched_events();
  saved.bytes = e.take();
  // The follow-up count k is the word 40k bytes before the end that
  // reads k; every shorter guess lands on a follow-up's seq, far above
  // any count.
  const std::vector<std::uint8_t>& b = saved.bytes;
  while (40 * saved.followups + 8 < b.size() &&
         get_u64(b, b.size() - 8 - 40 * saved.followups) != saved.followups) {
    ++saved.followups;
  }
  saved.ticks_end = b.size() - 8 - 40 * saved.followups;
  return saved;
}

// Restores `bytes` into a fresh started overlay whose clock was reset to
// the saved one, as a world restore does.
void restore_overlay(const SavedOverlay& saved, const std::vector<std::uint8_t>& bytes) {
  Fixture f(saved.cfg);
  f.overlay.start();
  f.sched.restore_clock(saved.now, saved.next_seq, saved.dispatched);
  snap::Decoder d(bytes);
  f.overlay.restore_state(d);
}

// A descriptor behind the restored clock, at or past its next_seq, or
// sharing a seq with another would reorder or rewind the run, so restore
// must refuse each; so too a follow-up with more probes left than a chain
// has.
TEST(OverlayNetwork, RestoreRejectsImpossibleEventDescriptors) {
  const SavedOverlay saved = save_with_followups(OverlayConfig{});
  const std::vector<std::uint8_t>& bytes = saved.bytes;
  ASSERT_GE(saved.followups, 1u);
  const std::size_t ticks_end = saved.ticks_end;
  ASSERT_EQ(bytes[ticks_end - 17], 1) << "last probe tick not pending";
  ASSERT_EQ(bytes[ticks_end - 34], 1) << "second-to-last probe tick not pending";
  ASSERT_NO_THROW(restore_overlay(saved, bytes));

  struct Descriptor {
    const char* what;
    std::size_t end;          // one past its seq
    std::uint64_t other_seq;  // another descriptor's seq
  };
  const Descriptor descriptors[] = {
      {"probe tick", ticks_end, get_u64(bytes, ticks_end - 17 - 8)},
      {"follow-up", bytes.size(), get_u64(bytes, ticks_end - 8)},
  };
  for (const Descriptor& desc : descriptors) {
    const std::size_t at = desc.end - 16;
    const std::size_t seq = desc.end - 8;
    std::vector<std::uint8_t> behind = bytes;
    put_u64(behind, at, 0);  // epoch, under a clock restored to 1 h
    EXPECT_THROW(restore_overlay(saved, behind), snap::SnapshotError) << desc.what;
    std::vector<std::uint8_t> future_seq = bytes;
    put_u64(future_seq, seq, saved.next_seq);
    EXPECT_THROW(restore_overlay(saved, future_seq), snap::SnapshotError) << desc.what;
    std::vector<std::uint8_t> repeated = bytes;
    put_u64(repeated, seq, desc.other_seq);
    EXPECT_THROW(restore_overlay(saved, repeated), snap::SnapshotError) << desc.what;
  }
  std::vector<std::uint8_t> too_many = bytes;
  put_u64(too_many, bytes.size() - 24, saved.cfg.followups + 1);
  EXPECT_THROW(restore_overlay(saved, too_many), snap::SnapshotError);
}

// A follow-up chain runs on an edge of the probed graph. In a capped
// overlay some pairs are not edges, and an id only matches once narrowed
// to 16 bits is not a node.
TEST(OverlayNetwork, RestoreRejectsAFollowupOffTheProbedGraph) {
  OverlayConfig cfg;
  cfg.fanout = 4;
  cfg.landmarks = 2;
  const SavedOverlay saved = save_with_followups(cfg);
  const std::vector<std::uint8_t>& bytes = saved.bytes;
  ASSERT_GE(saved.followups, 1u);
  ASSERT_NO_THROW(restore_overlay(saved, bytes));

  // The last follow-up's (src, dst) words.
  const std::size_t src_at = bytes.size() - 40;
  const std::size_t dst_at = src_at + 8;
  const Fixture capped(cfg);
  const NeighborSet& graph = capped.overlay.neighbors();
  NodeId a = 0;
  NodeId b = 1;
  while (a < graph.size() && (a == b || graph.adjacent(a, b))) {
    if (++b == graph.size()) {
      b = 0;
      ++a;
    }
  }
  ASSERT_LT(a, graph.size());
  std::vector<std::uint8_t> off_graph = bytes;
  put_u64(off_graph, src_at, a);
  put_u64(off_graph, dst_at, b);
  EXPECT_THROW(restore_overlay(saved, off_graph), snap::SnapshotError);
  std::vector<std::uint8_t> narrowed = bytes;
  put_u64(narrowed, src_at, 65536 + get_u64(bytes, src_at));
  EXPECT_THROW(restore_overlay(saved, narrowed), snap::SnapshotError);
}

}  // namespace
}  // namespace ronpath
