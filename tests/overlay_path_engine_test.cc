// Path-engine edge cases: entry-TTL staleness in the round search
// (regression for the historical `now`-less two-hop overload), Duration
// sentinel saturation in the one-relay latency scan, and the round
// search's depth bounds.

#include "overlay/path_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "overlay/link_state.h"
#include "overlay/router.h"

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

// --- the round search must honor entry-TTL staleness -----------------

TEST(TwoHopStaleness, StaleRelayEntriesDegradeToUnknown) {
  LinkStateTable t(4);
  RouterConfig cfg;
  cfg.entry_ttl = Duration::seconds(60);
  const TimePoint now = TimePoint::epoch() + Duration::minutes(30);

  // Everything published long ago (stale at `now`)...
  fill(t, 0.0, Duration::millis(40), TimePoint::epoch());
  // ...except the direct path, which is fresh but mediocre.
  t.publish(0, 1, metrics(0.2, Duration::millis(40), false, now));

  PathEngine engine(t, cfg);
  // Historical behavior (regression subject): the stale clean chain
  // 0->2->3->1 looked like zero loss and always won. With staleness
  // threaded through, expired entries compose at unknown_loss and the
  // fresh direct path wins.
  const EngineChoice fixed = engine.best_loss(0, 1, 2, now);
  EXPECT_TRUE(fixed.path.is_direct());

  // Republishing the relay chain fresh restores the two-relay win.
  t.publish(0, 2, metrics(0.0, Duration::millis(40), false, now));
  t.publish(2, 3, metrics(0.0, Duration::millis(40), false, now));
  t.publish(3, 1, metrics(0.0, Duration::millis(40), false, now));
  const PathSpec again = engine.best_loss(0, 1, 2, now).path.to_spec(0, 1);
  EXPECT_TRUE(again.is_two_hop());
  EXPECT_EQ(again.via, 2);
  EXPECT_EQ(again.via2, 3);
}

// --- Duration sentinel saturation in the one-relay latency scan ------

TEST(KHopLatencySentinel, UnmeasuredLinkPoisonsWholeChain) {
  LinkStateTable t(4);
  RouterConfig cfg;

  // Direct is slow but measured; the only cheap alternative is relay 2,
  // whose second leg is unmeasured (sentinel Duration::max()).
  // Everything else is far worse than direct.
  fill(t, 0.0, Duration::seconds(20));
  t.publish(0, 1, metrics(0.0, Duration::seconds(9)));
  t.publish(0, 2, metrics(0.0, Duration::millis(1)));
  t.publish(2, 1, metrics(0.0, Duration::max()));

  // The sentinel must absorb the whole composition: max() + anything
  // stays max() and never wraps into a small attractive value, so the
  // measured direct path wins outright.
  PathEngine engine(t, cfg);
  const EngineChoice poisoned = engine.best_latency(0, 1, TimePoint::epoch(), {});
  ASSERT_TRUE(poisoned.valid);
  EXPECT_TRUE(poisoned.path.is_direct());
  EXPECT_EQ(poisoned.latency, Duration::seconds(9));

  // Positive control: measure the second leg and the same relay is
  // selected — the sentinel, not the topology, excluded it above.
  t.publish(2, 1, metrics(0.0, Duration::millis(1)));
  const EngineChoice healed = engine.best_latency(0, 1, TimePoint::epoch(), {});
  ASSERT_TRUE(healed.valid);
  EXPECT_EQ(healed.path.count, 1);
  EXPECT_EQ(healed.path.hops[0], 2);

  // Near-overflow saturation: two huge-but-finite legs whose sum passes
  // the int64 range must saturate to max() rather than wrapping
  // negative and winning.
  LinkStateTable t2(4);
  fill(t2, 0.0, Duration::nanos(std::numeric_limits<std::int64_t>::max() / 2 + 1));
  t2.publish(0, 1, metrics(0.0, Duration::seconds(9)));
  PathEngine engine2(t2, cfg);
  const EngineChoice direct = engine2.best_latency(0, 1, TimePoint::epoch(), {});
  ASSERT_TRUE(direct.valid);
  EXPECT_TRUE(direct.path.is_direct());
  EXPECT_EQ(direct.latency, Duration::seconds(9));
}

// --- depth bounds ----------------------------------------------------

TEST(PathEngineDepth, RoundSearchRejectsDepthOutsideRounds) {
  LinkStateTable t(4);
  fill(t, 0.3, Duration::millis(40));
  RouterConfig cfg;
  PathEngine engine(t, cfg);
  // The round search covers 1..kMaxRounds relays and rejects the rest,
  // not clamps them.
  for (const int hops : {0, -1, PathEngine::kMaxRounds + 1}) {
    EXPECT_THROW((void)engine.best_loss(0, 1, hops, TimePoint::epoch()), std::invalid_argument)
        << "max_hops " << hops;
  }
  for (int hops = 1; hops <= PathEngine::kMaxRounds; ++hops) {
    EXPECT_TRUE(engine.best_loss(0, 1, hops, TimePoint::epoch()).valid) << "max_hops " << hops;
  }
}

}  // namespace
}  // namespace ronpath
