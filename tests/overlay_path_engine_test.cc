// Path-engine edge cases: entry-TTL staleness in the one-relay loss scan
// (regression for the historical `now`-less scan), and Duration sentinel
// saturation in the one-relay latency scan.

#include "overlay/path_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

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

// --- the loss scan must honor entry-TTL staleness ------------------

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
  // Historical behavior (regression subject): the stale clean relay
  // 0->2->1 looked like zero loss and always won. With staleness
  // threaded through, expired legs compose at unknown_loss and the
  // fresh direct path wins.
  const EngineChoice fixed = engine.best_loss(0, 1, now, {});
  ASSERT_TRUE(fixed.valid);
  EXPECT_EQ(fixed.via, kDirectVia);
  EXPECT_DOUBLE_EQ(fixed.loss, 0.2);

  // Republishing the relay's legs fresh restores its win.
  t.publish(0, 2, metrics(0.0, Duration::millis(40), false, now));
  t.publish(2, 1, metrics(0.0, Duration::millis(40), false, now));
  const EngineChoice again = engine.best_loss(0, 1, now, {});
  ASSERT_TRUE(again.valid);
  EXPECT_EQ(again.via, 2);
  EXPECT_DOUBLE_EQ(again.loss, cfg.indirect_loss_penalty);
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
  EXPECT_EQ(poisoned.via, kDirectVia);
  EXPECT_EQ(poisoned.latency, Duration::seconds(9));

  // Positive control: measure the second leg and the same relay is
  // selected — the sentinel, not the topology, excluded it above.
  t.publish(2, 1, metrics(0.0, Duration::millis(1)));
  const EngineChoice healed = engine.best_latency(0, 1, TimePoint::epoch(), {});
  ASSERT_TRUE(healed.valid);
  EXPECT_EQ(healed.via, 2);

  // Near-overflow saturation: two huge-but-finite legs whose sum passes
  // the int64 range must saturate to max() rather than wrapping
  // negative and winning.
  LinkStateTable t2(4);
  fill(t2, 0.0, Duration::nanos(std::numeric_limits<std::int64_t>::max() / 2 + 1));
  t2.publish(0, 1, metrics(0.0, Duration::seconds(9)));
  PathEngine engine2(t2, cfg);
  const EngineChoice direct = engine2.best_latency(0, 1, TimePoint::epoch(), {});
  ASSERT_TRUE(direct.valid);
  EXPECT_EQ(direct.via, kDirectVia);
  EXPECT_EQ(direct.latency, Duration::seconds(9));
}

}  // namespace
}  // namespace ronpath
