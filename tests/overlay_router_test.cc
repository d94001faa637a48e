#include "overlay/router.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/scale_topology.h"
#include "overlay/link_state.h"
#include "overlay/neighbors.h"
#include "snapshot/codec.h"

namespace ronpath {
namespace {

LinkMetrics metrics(double loss, Duration lat, bool down = false) {
  LinkMetrics m;
  m.loss = loss;
  m.latency = lat;
  m.has_latency = lat != Duration::max();
  m.down = down;
  m.samples = 100;
  m.published = TimePoint::epoch();
  return m;
}

// Fills a fully-connected table with uniform metrics.
void fill(LinkStateTable& t, double loss, Duration lat) {
  const auto n = static_cast<NodeId>(t.size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) t.publish(a, b, metrics(loss, lat));
    }
  }
}

TEST(PathEstimates, DirectUsesSingleLink) {
  LinkStateTable t(3);
  fill(t, 0.01, Duration::millis(50));
  EXPECT_DOUBLE_EQ(path_loss_estimate(t, PathSpec{0, 1, kDirectVia}, RouterConfig{},
                                      TimePoint::epoch()),
                   0.01);
}

TEST(PathEstimates, IndirectComposesLoss) {
  LinkStateTable t(3);
  fill(t, 0.1, Duration::millis(50));
  const double expected = 1.0 - 0.9 * 0.9;
  EXPECT_NEAR(path_loss_estimate(t, PathSpec{0, 1, 2}, RouterConfig{}, TimePoint::epoch()),
              expected, 1e-12);
}

TEST(PathEstimates, DownLinkIsTotalLoss) {
  LinkStateTable t(3);
  fill(t, 0.0, Duration::millis(10));
  t.publish(0, 1, metrics(0.0, Duration::millis(10), /*down=*/true));
  EXPECT_DOUBLE_EQ(path_loss_estimate(t, PathSpec{0, 1, kDirectVia}, RouterConfig{},
                                      TimePoint::epoch()),
                   1.0);
  EXPECT_TRUE(path_down(t, PathSpec{0, 1, kDirectVia}));
  EXPECT_TRUE(path_down(t, PathSpec{0, 2, 1}));
}

TEST(PathEstimates, LatencySumsWithForwarding) {
  LinkStateTable t(3);
  fill(t, 0.0, Duration::millis(30));
  RouterConfig cfg;
  cfg.forward_delay = Duration::millis(1);
  EXPECT_EQ(path_latency_estimate(t, PathSpec{0, 1, 2}, cfg, TimePoint::epoch()),
            Duration::millis(61));
}

TEST(PathEstimates, UnmeasuredLatencySaturates) {
  LinkStateTable t(3);
  fill(t, 0.0, Duration::millis(30));
  t.publish(0, 2, metrics(0.0, Duration::max()));
  RouterConfig cfg;
  EXPECT_EQ(path_latency_estimate(t, PathSpec{0, 1, 2}, cfg, TimePoint::epoch()),
            Duration::max());
}

TEST(Router, PrefersDirectOnTies) {
  LinkStateTable t(5);
  fill(t, 0.01, Duration::millis(40));
  Router r(0, t, RouterConfig{});
  const auto choice = r.best_loss_path(1, TimePoint::epoch());
  EXPECT_TRUE(choice.path.is_direct());
}

TEST(Router, AvoidsLossyDirectWhenClearlyWorse) {
  LinkStateTable t(4);
  fill(t, 0.005, Duration::millis(40));
  t.publish(0, 1, metrics(0.30, Duration::millis(40)));  // bad direct
  Router r(0, t, RouterConfig{});
  const auto choice = r.best_loss_path(1, TimePoint::epoch());
  EXPECT_FALSE(choice.path.is_direct());
  EXPECT_LT(choice.loss, 0.30);
}

TEST(Router, IndirectPenaltySuppressesNoise) {
  LinkStateTable t(4);
  fill(t, 0.0, Duration::millis(40));
  // Direct slightly lossy but within the indirect penalty: stays direct.
  RouterConfig cfg;
  cfg.indirect_loss_penalty = 0.03;
  t.publish(0, 1, metrics(0.02, Duration::millis(40)));
  Router r(0, t, cfg);
  EXPECT_TRUE(r.best_loss_path(1, TimePoint::epoch()).path.is_direct());
}

TEST(Router, LossHysteresisKeepsIncumbent) {
  LinkStateTable t(4);
  fill(t, 0.005, Duration::millis(40));
  t.publish(0, 1, metrics(0.40, Duration::millis(40)));
  RouterConfig cfg;
  Router r(0, t, cfg);
  const auto first = r.best_loss_path(1, TimePoint::epoch());
  ASSERT_FALSE(first.path.is_direct());
  const NodeId via = first.path.via;
  // Another via becomes infinitesimally better: incumbent must stick.
  for (NodeId v = 2; v < 4; ++v) {
    if (v != via) {
      t.publish(0, v, metrics(0.004, Duration::millis(40)));
      t.publish(v, 1, metrics(0.004, Duration::millis(40)));
    }
  }
  EXPECT_EQ(r.best_loss_path(1, TimePoint::epoch()).path.via, via);
}

TEST(Router, SwitchesWhenIncumbentGoesDown) {
  LinkStateTable t(4);
  fill(t, 0.005, Duration::millis(40));
  t.publish(0, 1, metrics(0.40, Duration::millis(40)));
  Router r(0, t, RouterConfig{});
  const auto first = r.best_loss_path(1, TimePoint::epoch());
  ASSERT_FALSE(first.path.is_direct());
  t.publish(0, first.path.via, metrics(0.0, Duration::millis(40), /*down=*/true));
  const auto second = r.best_loss_path(1, TimePoint::epoch());
  EXPECT_NE(second.path.via, first.path.via);
}

TEST(Router, LatencyPrefersFasterIndirect) {
  LinkStateTable t(4);
  fill(t, 0.0, Duration::millis(60));
  // Via node 2 is much faster on both legs (triangle violation).
  t.publish(0, 2, metrics(0.0, Duration::millis(10)));
  t.publish(2, 1, metrics(0.0, Duration::millis(10)));
  Router r(0, t, RouterConfig{});
  const auto choice = r.best_lat_path(1, TimePoint::epoch());
  EXPECT_EQ(choice.path.via, 2);
  EXPECT_LT(choice.latency, Duration::millis(30));
}

TEST(Router, LatencyAvoidsDownLinks) {
  LinkStateTable t(4);
  fill(t, 0.0, Duration::millis(60));
  t.publish(0, 1, metrics(0.0, Duration::millis(5), /*down=*/true));  // fast but dead
  Router r(0, t, RouterConfig{});
  const auto choice = r.best_lat_path(1, TimePoint::epoch());
  EXPECT_FALSE(path_down(t, choice.path));
}

TEST(Router, LatencyHysteresis) {
  LinkStateTable t(4);
  fill(t, 0.0, Duration::millis(50));
  Router r(0, t, RouterConfig{});
  const auto first = r.best_lat_path(1, TimePoint::epoch());
  EXPECT_TRUE(first.path.is_direct());
  // A via gets trivially faster (under the 2 ms/5% margins): keep direct.
  t.publish(0, 2, metrics(0.0, Duration::millis(24)));
  t.publish(2, 1, metrics(0.0, Duration::millis(24)));
  EXPECT_TRUE(r.best_lat_path(1, TimePoint::epoch()).path.is_direct());
  // Now dramatically faster: switch.
  t.publish(0, 2, metrics(0.0, Duration::millis(10)));
  t.publish(2, 1, metrics(0.0, Duration::millis(10)));
  EXPECT_EQ(r.best_lat_path(1, TimePoint::epoch()).path.via, 2);
}

TEST(Router, LiveIntermediatesExcludesEndpointsAndDown) {
  LinkStateTable t(5);
  fill(t, 0.0, Duration::millis(10));
  // Node 3 appears down on all links.
  for (NodeId o = 0; o < 5; ++o) {
    if (o == 3) continue;
    t.publish(3, o, metrics(0.0, Duration::millis(10), true));
    t.publish(o, 3, metrics(0.0, Duration::millis(10), true));
  }
  Router r(0, t, RouterConfig{});
  const auto vias = r.live_intermediates(1);
  EXPECT_EQ(vias.size(), 2u);  // nodes 2 and 4
  for (NodeId v : vias) {
    EXPECT_NE(v, 0);
    EXPECT_NE(v, 1);
    EXPECT_NE(v, 3);
  }

  // Capped graph: the merged endpoint rows must equal the historical
  // O(n) candidate filter element by element and in order, since
  // route(kRand) indexes this list with an RNG draw.
  const Topology topo = scale_topology({.nodes = 60, .seed = 7});
  const NeighborSet g = NeighborSet::build(topo, 3, 2);
  ASSERT_FALSE(g.full());
  LinkStateTable capped(g);
  for (NodeId a = 0; a < g.size(); ++a) {
    for (const NodeId b : g.neighbors(a)) capped.publish(a, b, metrics(0.0, Duration::millis(10)));
  }
  const NodeId landmark = g.landmarks()[0];
  std::vector<NodeId> plain;  // non-landmarks, ascending
  for (NodeId v = 0; v < g.size(); ++v) {
    if (!g.is_landmark(v)) plain.push_back(v);
  }
  // One non-landmark relay candidate seems down on all its links.
  NodeId down = kInvalidNode;
  for (const NodeId v : g.neighbors(plain[0])) {
    if (!g.is_landmark(v) && v != plain[1]) {
      down = v;
      break;
    }
  }
  ASSERT_NE(down, kInvalidNode);
  for (const NodeId o : g.neighbors(down)) {
    capped.publish(down, o, metrics(0.0, Duration::millis(10), true));
    capped.publish(o, down, metrics(0.0, Duration::millis(10), true));
  }
  ASSERT_FALSE(capped.node_seems_up(down));
  const auto legacy = [&](NodeId self, NodeId dst) {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (v == self || v == dst) continue;
      if (!(g.adjacent(self, v) || g.adjacent(dst, v) || g.is_landmark(v))) continue;
      if (!capped.node_seems_up(v)) continue;
      out.push_back(v);
    }
    return out;
  };
  // A landmark's row holds every other node; a plain pair's rows do not.
  const std::vector<NodeId> via_landmark =
      Router(plain[0], capped, RouterConfig{}).live_intermediates(landmark);
  EXPECT_EQ(via_landmark, legacy(plain[0], landmark));
  EXPECT_EQ(via_landmark.size(), g.size() - 3);  // all but the endpoints and `down`
  const std::vector<NodeId> via_plain =
      Router(plain[0], capped, RouterConfig{}).live_intermediates(plain[1]);
  EXPECT_EQ(via_plain, legacy(plain[0], plain[1]));
  EXPECT_LT(via_plain.size(), g.size() / 2);
}

TEST(LinkStateTable, NodeSeemsUpBeforeAnyProbes) {
  LinkStateTable t(3);
  EXPECT_TRUE(t.node_seems_up(0));
}

TEST(LinkStateTable, PublishAndGet) {
  LinkStateTable t(3);
  t.publish(0, 1, metrics(0.25, Duration::millis(99)));
  EXPECT_DOUBLE_EQ(t.get(0, 1).loss, 0.25);
  EXPECT_EQ(t.get(0, 1).latency, Duration::millis(99));
  EXPECT_DOUBLE_EQ(t.get(1, 0).loss, 0.0);  // reverse untouched

  // Full meshes: a distinct loss on every directed pair must come back by
  // pair, by edge rank, in a-major storage order and through a
  // save/restore round trip, with the full-mesh ranks computed
  // arithmetically agreeing with the CSR rows.
  for (const std::size_t n : {1u, 2u, 3u, 12u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    LinkStateTable full(n);
    const NeighborSet& g = full.neighbors();
    const auto loss_of = [n](NodeId a, NodeId b) {
      return static_cast<double>(a * n + b + 1) / static_cast<double>(n * n + 1);
    };
    std::vector<std::pair<NodeId, NodeId>> pairs;  // a-major
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        if (a != b) pairs.emplace_back(a, b);
      }
    }
    for (const auto& [a, b] : pairs) full.publish(a, b, metrics(loss_of(a, b), Duration::millis(7)));

    for (const auto& [a, b] : pairs) {
      const std::size_t e = g.edge_index(a, b);
      EXPECT_EQ(g.neighbors(a)[e - g.row_begin(a)], b) << a << "->" << b;
      EXPECT_EQ(g.reverse_edge(e), g.edge_index(b, a)) << a << "->" << b;
      EXPECT_EQ(full.get(a, b).loss, loss_of(a, b)) << a << "->" << b;
      EXPECT_EQ(full.at_edge(e).loss, loss_of(a, b)) << a << "->" << b;
    }
    for (NodeId a = 0; a < n; ++a) EXPECT_EQ(&full.get(a, a), &LinkStateTable::pristine());

    std::vector<std::pair<NodeId, NodeId>> visited;
    full.for_each_entry([&](NodeId a, NodeId b, const LinkMetrics& m) {
      visited.emplace_back(a, b);
      EXPECT_EQ(m.loss, loss_of(a, b)) << a << "->" << b;
    });
    EXPECT_EQ(visited, pairs);

    snap::Encoder enc;
    full.save_state(enc);
    LinkStateTable restored(n);
    snap::Decoder dec(enc.bytes());
    restored.restore_state(dec);
    EXPECT_NO_THROW(dec.expect_done());
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(restored.get(a, b).loss, loss_of(a, b)) << a << "->" << b;
      EXPECT_EQ(restored.get(a, b).latency, Duration::millis(7)) << a << "->" << b;
    }
  }
}

}  // namespace
}  // namespace ronpath
