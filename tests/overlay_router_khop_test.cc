// Router edge cases at k-hop depths: entry-TTL staleness in the
// two-hop selector (regression for the historical `now`-less overload),
// hold-down interacting with multi-relay selection, degraded-view
// fallback at k > 1, and Duration sentinel saturation in multi-hop
// latency composition.

#include "overlay/router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/experiment.h"
#include "overlay/link_state.h"
#include "overlay/path_engine.h"

namespace ronpath {
namespace {

LinkMetrics metrics(double loss, Duration lat, bool down = false,
                    TimePoint published = TimePoint::epoch()) {
  LinkMetrics m;
  m.loss = loss;
  m.latency = lat;
  m.has_latency = lat != Duration::max();
  m.down = down;
  m.samples = 100;
  m.published = published;
  return m;
}

void fill(LinkStateTable& t, double loss, Duration lat, TimePoint published = TimePoint::epoch()) {
  const auto n = static_cast<NodeId>(t.size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) t.publish(a, b, metrics(loss, lat, false, published));
    }
  }
}

// --- satellite: two-hop selector must honor entry-TTL staleness ------

TEST(TwoHopStaleness, StaleRelayEntriesDegradeToUnknown) {
  LinkStateTable t(4);
  RouterConfig cfg;
  cfg.entry_ttl = Duration::seconds(60);
  const TimePoint now = TimePoint::epoch() + Duration::minutes(30);

  // Everything published long ago (stale at `now`)...
  fill(t, 0.0, Duration::millis(40), TimePoint::epoch());
  // ...except the direct path, which is fresh but mediocre.
  t.publish(0, 1, metrics(0.2, Duration::millis(40), false, now));

  Router r(0, t, cfg);
  // Historical behavior (regression subject): the stale clean chain
  // 0->2->3->1 looked like zero loss and always won. With staleness
  // threaded through, expired entries compose at unknown_loss and the
  // fresh direct path wins.
  const PathChoice fixed = r.best_loss_path_two_hop(1, now);
  EXPECT_TRUE(fixed.path.is_direct());

  // Republishing the relay chain fresh restores the two-hop win.
  t.publish(0, 2, metrics(0.0, Duration::millis(40), false, now));
  t.publish(2, 3, metrics(0.0, Duration::millis(40), false, now));
  t.publish(3, 1, metrics(0.0, Duration::millis(40), false, now));
  const PathChoice again = r.best_loss_path_two_hop(1, now);
  EXPECT_TRUE(again.path.is_two_hop());
  EXPECT_EQ(again.path.via, 2);
  EXPECT_EQ(again.path.via2, 3);
}

// --- satellite: hold-down must exclude every relay position ----------

TEST(KHopHolddown, HeldDownNodeExcludedAsMiddleHop) {
  LinkStateTable t(4);
  RouterConfig cfg;
  cfg.max_intermediates = 2;
  cfg.holddown_base = Duration::seconds(30);

  // Direct 0->1 is bad; the clean chain is 0->2->3->1; everything else
  // is mediocre.
  fill(t, 0.3, Duration::millis(40));
  t.publish(0, 1, metrics(0.5, Duration::millis(40)));
  t.publish(0, 2, metrics(0.0, Duration::millis(40)));
  t.publish(2, 3, metrics(0.0, Duration::millis(40)));
  t.publish(3, 1, metrics(0.0, Duration::millis(40)));
  t.publish(0, 3, metrics(0.0, Duration::millis(40)));

  Router r(0, t, cfg);
  TimePoint now = TimePoint::epoch();

  // One-hop via 3 wins first (single penalty beats the chain's two).
  const PathChoice first = r.best_loss_path(1, now);
  ASSERT_EQ(first.path.via, 3);
  ASSERT_FALSE(first.path.is_two_hop());

  // 0->3 goes down: the incumbent registers a hold-down on node 3.
  t.publish(0, 3, metrics(0.0, Duration::millis(40), /*down=*/true));
  now += Duration::seconds(1);
  const PathChoice after = r.best_loss_path(1, now);
  EXPECT_TRUE(r.held_down(1, 3, now));
  // Node 3 must now be excluded from EVERY relay position, including
  // the middle of 0->2->3->1 (whose links are all still clean).
  EXPECT_NE(after.path.via, 3);
  EXPECT_NE(after.path.via2, 3);

  // After the hold-down lapses, the clean chain through 3 is selected.
  now += Duration::minutes(2);
  const PathChoice healed = r.best_loss_path(1, now);
  EXPECT_TRUE(healed.path.is_two_hop());
  EXPECT_EQ(healed.path.via, 2);
  EXPECT_EQ(healed.path.via2, 3);
}

// --- satellite: degraded view falls back to direct at k > 1 ----------

TEST(KHopDegradedView, AllStaleEntriesFallBackToDirect) {
  LinkStateTable t(5);
  RouterConfig cfg;
  cfg.max_intermediates = 2;
  cfg.entry_ttl = Duration::seconds(60);

  // A seductive clean relay mesh, all of it stale.
  fill(t, 0.0, Duration::millis(40), TimePoint::epoch());
  const TimePoint now = TimePoint::epoch() + Duration::hours(1);

  Router r(0, t, cfg);
  ASSERT_TRUE(r.view_degraded(now));
  const PathChoice loss = r.best_loss_path(1, now);
  EXPECT_TRUE(loss.path.is_direct());
  const PathChoice lat = r.best_lat_path(1, now);
  EXPECT_TRUE(lat.path.is_direct());
}

// --- satellite: Duration sentinel saturation in multi-hop chains -----

TEST(KHopLatencySentinel, UnmeasuredLinkPoisonsWholeChain) {
  LinkStateTable t(4);
  RouterConfig cfg;

  // Direct is slow but measured; the only cheap alternative is the chain
  // 0->2->3->1, whose middle link is unmeasured (sentinel
  // Duration::max()). Everything else is far worse than direct.
  fill(t, 0.0, Duration::seconds(20));
  t.publish(0, 1, metrics(0.0, Duration::seconds(9)));
  t.publish(0, 2, metrics(0.0, Duration::millis(1)));
  t.publish(2, 3, metrics(0.0, Duration::max()));
  t.publish(3, 1, metrics(0.0, Duration::millis(1)));

  // The sentinel must absorb the whole composition: max() + anything
  // stays max() and never wraps into a small attractive value, so the
  // measured direct path wins outright.
  PathEngine engine(t, cfg);
  const EngineChoice poisoned = engine.best_latency(0, 1, 2, TimePoint::epoch());
  ASSERT_TRUE(poisoned.valid);
  EXPECT_TRUE(poisoned.path.is_direct());
  EXPECT_EQ(poisoned.latency, Duration::seconds(9));

  // Positive control: measure the middle link and the same chain is
  // selected — the sentinel, not the topology, excluded it above.
  t.publish(2, 3, metrics(0.0, Duration::millis(1)));
  const EngineChoice healed = engine.best_latency(0, 1, 2, TimePoint::epoch());
  ASSERT_TRUE(healed.valid);
  EXPECT_EQ(healed.path.count, 2);
  EXPECT_EQ(healed.path.hops[0], 2);
  EXPECT_EQ(healed.path.hops[1], 3);

  // Near-overflow saturation: two huge-but-finite links must saturate
  // toward max() rather than wrapping negative and winning.
  LinkStateTable t2(4);
  fill(t2, 0.0, Duration::nanos(std::numeric_limits<std::int64_t>::max() / 2));
  t2.publish(0, 1, metrics(0.0, Duration::seconds(9)));
  PathEngine engine2(t2, cfg);
  const EngineChoice direct = engine2.best_latency(0, 1, 2, TimePoint::epoch());
  ASSERT_TRUE(direct.valid);
  EXPECT_TRUE(direct.path.is_direct());
  EXPECT_EQ(direct.latency, Duration::seconds(9));
}

// --- config plumbing -------------------------------------------------

TEST(PathDepthConfig, ExperimentRejectsOutOfRangeDepth) {
  ExperimentConfig cfg;
  cfg.path_depth = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.path_depth = 3;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

TEST(PathDepthConfig, RouterRejectsDepthOutsideForwardingLimit) {
  LinkStateTable t(4);
  fill(t, 0.3, Duration::millis(40));
  t.publish(0, 1, metrics(0.5, Duration::millis(40)));
  t.publish(0, 2, metrics(0.0, Duration::millis(40)));
  t.publish(2, 3, metrics(0.0, Duration::millis(40)));
  t.publish(3, 1, metrics(0.0, Duration::millis(40)));

  // In range: depth 2 picks the clean two-relay chain, depth 1 never can.
  RouterConfig deep;
  deep.max_intermediates = 2;
  Router r(0, t, deep);
  EXPECT_TRUE(r.best_loss_path(1).path.is_two_hop());
  RouterConfig shallow;
  shallow.max_intermediates = 1;
  Router r1(0, t, shallow);
  EXPECT_FALSE(r1.best_loss_path(1).path.is_two_hop());

  // The forwarding plane carries at most two relays: anything else is
  // rejected, not clamped.
  for (const int depth : {0, 3, 7}) {
    RouterConfig bad;
    bad.max_intermediates = depth;
    EXPECT_THROW(Router(0, t, bad), std::invalid_argument) << "depth " << depth;
  }

  // The engine itself searches 1..kMaxRounds relays and rejects the rest.
  RouterConfig cfg;
  PathEngine engine(t, cfg);
  for (const int hops : {0, PathEngine::kMaxRounds + 1}) {
    EXPECT_THROW((void)engine.best_loss(0, 1, hops, TimePoint::epoch()), std::invalid_argument)
        << "max_hops " << hops;
    EXPECT_THROW((void)engine.best_latency(0, 1, hops, TimePoint::epoch()),
                 std::invalid_argument)
        << "max_hops " << hops;
  }
  EXPECT_TRUE(engine.best_loss(0, 1, PathEngine::kMaxRounds, TimePoint::epoch()).valid);
}

}  // namespace
}  // namespace ronpath
