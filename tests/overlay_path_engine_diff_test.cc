// Differential test layer for the path engine's one-relay scan.
//
// Two independent references pin the engine on randomized link-state
// tables:
//
//   * a NAIVE reference that implements the selection spec with none of
//     the engine's machinery: every node scanned as a relay by get(),
//     no CSR edge ranks, no early exit, recomputed from scratch per
//     query. Full results (relay, value) must match bit for bit.
//   * a BRUTE-FORCE enumerator that prices every admissible relay with
//     its penalty and keeps the smallest. Its value, and whether it
//     relays at all, must match: this is what proves that picking the
//     best raw relay first and penalizing it after loses nothing.
//
// Both objectives are pinned under random relay filters. A
// legacy-equivalence check pins the engine to the historical router
// scan it replaced (paths and values bitwise). Capped-graph cases pin
// the scan over sparse tables: the router's query (relays from the two
// endpoint rows) and the hybrid alternate's (every node, trusting
// entries forever).
//
// Case count is overridable via RONPATH_DIFF_CASES (the Release CI job
// cranks it up).

#include "overlay/path_engine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/scale_topology.h"
#include "overlay/link_state.h"
#include "overlay/neighbors.h"
#include "overlay/router.h"
#include "util/rng.h"

namespace ronpath {
namespace {

int diff_cases(int dflt) {
  if (const char* env = std::getenv("RONPATH_DIFF_CASES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

// ---------------------------------------------------------------------
// Randomized environments

LinkMetrics random_metrics(Rng& rng, TimePoint now) {
  LinkMetrics m;
  switch (rng.next_below(5)) {
    case 0: m.loss = 0.0; break;
    case 1: m.loss = 0.5; break;
    case 2: m.loss = 1.0; break;
    default: m.loss = rng.next_double(); break;
  }
  switch (rng.next_below(4)) {
    case 0: m.latency = Duration::max(); break;  // never measured
    case 1: m.latency = Duration::millis(static_cast<std::int64_t>(1 + rng.next_below(100))); break;
    default:
      m.latency = Duration::micros(rng.uniform_int(50, 500'000));
      break;
  }
  m.has_latency = m.latency != Duration::max();
  m.down = rng.bernoulli(0.15);
  if (rng.bernoulli(0.12)) {
    m.samples = 0;  // published but empty window: expires under a TTL
  } else {
    m.samples = 100;
    m.published = now - Duration::seconds(static_cast<std::int64_t>(rng.next_below(200)));
  }
  return m;
}

void random_table(Rng& rng, LinkStateTable& t, TimePoint now) {
  const auto n = static_cast<NodeId>(t.size());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      if (rng.bernoulli(0.85)) t.publish(a, b, random_metrics(rng, now));
      // else: never published at all
    }
  }
}

RouterConfig random_cfg(Rng& rng) {
  RouterConfig cfg;
  switch (rng.next_below(3)) {
    case 0: cfg.indirect_loss_penalty = 0.0; break;
    case 1: cfg.indirect_loss_penalty = 0.03; break;
    default: cfg.indirect_loss_penalty = 0.1; break;
  }
  switch (rng.next_below(3)) {
    case 0: cfg.indirect_lat_penalty = Duration::zero(); break;
    case 1: cfg.indirect_lat_penalty = Duration::millis(1); break;
    default: cfg.indirect_lat_penalty = Duration::millis(5); break;
  }
  switch (rng.next_below(3)) {
    case 0: cfg.forward_delay = Duration::zero(); break;
    case 1: cfg.forward_delay = Duration::micros(300); break;
    default: cfg.forward_delay = Duration::millis(1); break;
  }
  cfg.entry_ttl = rng.bernoulli(0.5) ? Duration::seconds(90) : Duration::zero();
  cfg.unknown_loss = rng.bernoulli(0.5) ? 0.35 : 0.9;
  return cfg;
}

// Random hold-down style exclusion mask; null most of the time.
const std::vector<bool>* random_mask(Rng& rng, std::size_t n, std::vector<bool>& storage) {
  if (!rng.bernoulli(0.3)) return nullptr;
  storage.assign(n, false);
  for (std::size_t v = 0; v < n; ++v) storage[v] = rng.bernoulli(0.25);
  return &storage;
}

// The engine's form of a mask: the barred nodes, ascending.
std::vector<NodeId> barred_list(const std::vector<bool>* mask) {
  std::vector<NodeId> out;
  if (mask == nullptr) return out;
  for (NodeId v = 0; v < mask->size(); ++v) {
    if ((*mask)[v]) out.push_back(v);
  }
  return out;
}

std::vector<bool> liveness(const LinkStateTable& t) {
  std::vector<bool> live(t.size(), false);
  for (NodeId v = 0; v < t.size(); ++v) live[v] = t.node_seems_up(v);
  return live;
}

// ---------------------------------------------------------------------
// Reference A: a naive scan of every node, no edge ranks, no early exit.

struct NaiveChoice {
  NodeId via = kDirectVia;
  double loss = 0.0;
  Duration latency = Duration::zero();
  bool valid = true;
};

// The best relay of src -> dst under each objective: relays ascending,
// strict improvement on the raw survival or latency.
struct NaiveRelay {
  double survival = -1.0;
  NodeId loss_via = kInvalidNode;
  Duration latency = Duration::min();
  NodeId lat_via = kInvalidNode;
};

NaiveRelay naive_relay(const LinkStateTable& t, const RouterConfig& cfg, NodeId src, NodeId dst,
                       TimePoint now, const std::vector<bool>* excluded) {
  NaiveRelay R;
  const auto live = liveness(t);
  for (NodeId u = 0; u < t.size(); ++u) {
    if (u == src || u == dst || !live[u]) continue;
    if (excluded != nullptr && (*excluded)[u]) continue;
    const double s =
        (1.0 - link_loss(t.get(src, u), cfg, now)) * (1.0 - link_loss(t.get(u, dst), cfg, now));
    if (R.loss_via == kInvalidNode || s > R.survival) {
      R.survival = s;
      R.loss_via = u;
    }
    const Duration d = Duration::saturating_add(link_latency(t.get(src, u), cfg, now),
                                                link_latency(t.get(u, dst), cfg, now));
    if (R.lat_via == kInvalidNode || d < R.latency) {
      R.latency = d;
      R.lat_via = u;
    }
  }
  return R;
}

NaiveChoice naive_best_loss(const NaiveRelay& R, const LinkStateTable& t, const RouterConfig& cfg,
                            NodeId src, NodeId dst, TimePoint now, bool include_direct) {
  NaiveChoice best;
  best.valid = include_direct;
  if (include_direct) best.loss = link_loss(t.get(src, dst), cfg, now);
  if (R.loss_via == kInvalidNode) return best;
  const double cand = (1.0 - R.survival) + cfg.indirect_loss_penalty;
  if (!best.valid || cand < best.loss) {
    best.valid = true;
    best.loss = cand;
    best.via = R.loss_via;
  }
  return best;
}

NaiveChoice naive_best_latency(const NaiveRelay& R, const LinkStateTable& t,
                               const RouterConfig& cfg, NodeId src, NodeId dst, TimePoint now,
                               bool include_direct) {
  NaiveChoice best;
  best.valid = include_direct;
  if (include_direct) best.latency = link_latency(t.get(src, dst), cfg, now);
  if (R.lat_via == kInvalidNode) return best;
  Duration cand = Duration::saturating_add(R.latency, cfg.forward_delay);
  if (cand != Duration::max()) cand += cfg.indirect_lat_penalty;
  if (!best.valid || cand < best.latency) {
    best.valid = true;
    best.latency = cand;
    best.via = R.lat_via;
  }
  return best;
}

// ---------------------------------------------------------------------
// Reference B: brute-force pricing of every admissible relay.

struct EnumBest {
  double loss = 0.0;
  Duration latency = Duration::zero();
  bool relay = false;
  bool valid = false;
};

std::vector<NodeId> relay_pool(const LinkStateTable& t, NodeId src, NodeId dst,
                               const std::vector<bool>* excluded) {
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (v == src || v == dst || !t.node_seems_up(v)) continue;
    if (excluded != nullptr && (*excluded)[v]) continue;
    pool.push_back(v);
  }
  return pool;
}

EnumBest enum_best_loss(const LinkStateTable& t, const RouterConfig& cfg, NodeId src, NodeId dst,
                        TimePoint now, const std::vector<bool>* excluded, bool include_direct) {
  EnumBest best;
  if (include_direct) {
    best.valid = true;
    best.loss = link_loss(t.get(src, dst), cfg, now);
  }
  for (const NodeId v : relay_pool(t, src, dst, excluded)) {
    const double s =
        (1.0 - link_loss(t.get(src, v), cfg, now)) * (1.0 - link_loss(t.get(v, dst), cfg, now));
    const double cand = (1.0 - s) + cfg.indirect_loss_penalty;
    if (!best.valid || cand < best.loss) {
      best.valid = true;
      best.loss = cand;
      best.relay = true;
    }
  }
  return best;
}

EnumBest enum_best_latency(const LinkStateTable& t, const RouterConfig& cfg, NodeId src,
                           NodeId dst, TimePoint now, const std::vector<bool>* excluded,
                           bool include_direct) {
  EnumBest best;
  if (include_direct) {
    best.valid = true;
    best.latency = link_latency(t.get(src, dst), cfg, now);
  }
  for (const NodeId v : relay_pool(t, src, dst, excluded)) {
    const Duration d = Duration::saturating_add(link_latency(t.get(src, v), cfg, now),
                                                link_latency(t.get(v, dst), cfg, now));
    Duration cand = Duration::saturating_add(d, cfg.forward_delay);
    if (cand != Duration::max()) cand += cfg.indirect_lat_penalty;
    if (!best.valid || cand < best.latency) {
      best.valid = true;
      best.latency = cand;
      best.relay = true;
    }
  }
  return best;
}

// True when the pool holds a relay whose two legs survive exactly 1.0:
// the loss scan may stop there, as no later relay can strictly beat it.
bool has_lossless_relay(const LinkStateTable& t, const RouterConfig& cfg, NodeId src, NodeId dst,
                        TimePoint now, const std::vector<bool>* excluded) {
  for (const NodeId v : relay_pool(t, src, dst, excluded)) {
    if ((1.0 - link_loss(t.get(src, v), cfg, now)) * (1.0 - link_loss(t.get(v, dst), cfg, now)) ==
        1.0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Every query vs both references: the filtered one-relay queries under
// both objectives.

TEST(PathEngineDiff, MatchesNaiveAndEnumerationOnRandomTables) {
  const int cases = diff_cases(5500);
  Rng rng(0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto n = static_cast<NodeId>(3 + rng.next_below(7));
    const TimePoint now =
        TimePoint::epoch() + Duration::seconds(static_cast<std::int64_t>(100 + rng.next_below(400)));
    const RouterConfig cfg = random_cfg(rng);
    LinkStateTable table(n);
    random_table(rng, table, now);
    const auto src = static_cast<NodeId>(rng.next_below(n));
    auto dst = static_cast<NodeId>(rng.next_below(n));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
    std::vector<bool> mask_storage;
    const std::vector<bool>* mask = random_mask(rng, n, mask_storage);
    const bool include_direct = !rng.bernoulli(0.25);

    PathEngine engine(table, cfg);
    const NaiveRelay R = naive_relay(table, cfg, src, dst, now, mask);
    const std::vector<NodeId> barred = barred_list(mask);
    const RelayFilter filter{.excluded = barred, .include_direct = include_direct};
    {
      const EngineChoice e = engine.best_loss(src, dst, now, filter);
      const NaiveChoice nv = naive_best_loss(R, table, cfg, src, dst, now, include_direct);
      ASSERT_EQ(e.valid, nv.valid);
      if (e.valid) {
        ASSERT_EQ(e.loss, nv.loss);  // bitwise: same expression DAG
        ASSERT_EQ(e.via, nv.via);
      }
      const EnumBest en = enum_best_loss(table, cfg, src, dst, now, mask, include_direct);
      ASSERT_EQ(e.valid, en.valid);
      if (e.valid) {
        ASSERT_EQ(e.loss, en.loss);
        ASSERT_EQ(e.via != kDirectVia, en.relay);
      }
    }
    {
      const EngineChoice e = engine.best_latency(src, dst, now, filter);
      const NaiveChoice nv = naive_best_latency(R, table, cfg, src, dst, now, include_direct);
      ASSERT_EQ(e.valid, nv.valid);
      if (e.valid) {
        ASSERT_EQ(e.latency, nv.latency);
        ASSERT_EQ(e.via, nv.via);
      }
      const EnumBest en = enum_best_latency(table, cfg, src, dst, now, mask, include_direct);
      ASSERT_EQ(e.valid, en.valid);
      if (e.valid) {
        ASSERT_EQ(e.latency, en.latency);
        ASSERT_EQ(e.via != kDirectVia, en.relay);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Legacy-equivalence: the engine is the historical router scan, path
// and value bitwise.

TEST(PathEngineDiff, OneHopMatchesLegacyRouterScan) {
  const int cases = diff_cases(5500) / 2;
  Rng rng(0xd1b54a32d192ed03ULL);
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto n = static_cast<NodeId>(3 + rng.next_below(7));
    const TimePoint now =
        TimePoint::epoch() + Duration::seconds(static_cast<std::int64_t>(100 + rng.next_below(400)));
    const RouterConfig cfg = random_cfg(rng);
    LinkStateTable table(n);
    random_table(rng, table, now);
    const auto src = static_cast<NodeId>(rng.next_below(n));
    auto dst = static_cast<NodeId>(rng.next_below(n));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
    std::vector<bool> mask_storage;
    const std::vector<bool>* mask = random_mask(rng, n, mask_storage);
    const std::vector<NodeId> barred = barred_list(mask);

    PathEngine engine(table, cfg);

    // Historical evaluate_loss candidate loop, verbatim.
    {
      const PathSpec direct{src, dst, kDirectVia};
      PathSpec best = direct;
      double best_loss = path_loss_estimate(table, direct, cfg, now);
      for (NodeId v = 0; v < n; ++v) {
        if (v == src || v == dst || !table.node_seems_up(v)) continue;
        if (mask != nullptr && (*mask)[v]) continue;
        const PathSpec p{src, dst, v};
        const double l = path_loss_estimate(table, p, cfg, now) + cfg.indirect_loss_penalty;
        if (l < best_loss) {
          best = p;
          best_loss = l;
        }
      }
      const EngineChoice e = engine.best_loss(src, dst, now, {.excluded = barred});
      ASSERT_TRUE(e.valid);
      ASSERT_EQ((PathSpec{src, dst, e.via}), best);
      ASSERT_EQ(e.loss, best_loss);
    }
    // Historical evaluate_lat candidate loop, verbatim.
    {
      const PathSpec direct{src, dst, kDirectVia};
      PathSpec best = direct;
      Duration best_lat = path_latency_estimate(table, direct, cfg, now);
      for (NodeId v = 0; v < n; ++v) {
        if (v == src || v == dst || !table.node_seems_up(v)) continue;
        if (mask != nullptr && (*mask)[v]) continue;
        const PathSpec p{src, dst, v};
        Duration d = path_latency_estimate(table, p, cfg, now);
        if (d != Duration::max()) d += cfg.indirect_lat_penalty;
        if (d < best_lat) {
          best = p;
          best_lat = d;
        }
      }
      const EngineChoice e = engine.best_latency(src, dst, now, {.excluded = barred});
      ASSERT_TRUE(e.valid);
      ASSERT_EQ((PathSpec{src, dst, e.via}), best);
      ASSERT_EQ(e.latency, best_lat);
    }
  }
}

// ---------------------------------------------------------------------
// Capped graphs: the one-relay scan over a sparse table, as the router
// and the hybrid alternate issue it, against the naive reference.

// A random capped neighbor graph: every row holds at most a few
// k-nearest peers plus 0-3 landmarks, so most pairs are not adjacent.
NeighborSet random_graph(Rng& rng) {
  const std::size_t n = 8 + rng.next_below(33);
  const Topology topo = scale_topology({.nodes = n, .seed = rng.next_u64()});
  return NeighborSet::build(topo, 1 + rng.next_below(4), rng.next_below(4));
}

// Publishes most directed edges of the graph. A third of the cases draw
// loss 0 for half the links, so relays with two lossless legs (and the
// loss scan's early exit) are common.
void random_sparse_table(Rng& rng, const NeighborSet& g, LinkStateTable& t, TimePoint now) {
  const bool lossless_heavy = rng.bernoulli(0.33);
  for (NodeId a = 0; a < g.size(); ++a) {
    for (const NodeId b : g.neighbors(a)) {
      if (!rng.bernoulli(0.85)) continue;  // never published
      LinkMetrics m = random_metrics(rng, now);
      if (lossless_heavy && rng.bernoulli(0.5)) m.loss = 0.0;
      m.stride = static_cast<std::uint32_t>(1 + rng.next_below(3));
      t.publish(a, b, m);
    }
  }
}

// A query endpoint; a landmark a third of the time when there is one.
NodeId random_endpoint(Rng& rng, const NeighborSet& g) {
  if (!g.landmarks().empty() && rng.bernoulli(0.33)) {
    return g.landmarks()[rng.next_below(g.landmarks().size())];
  }
  return static_cast<NodeId>(rng.next_below(g.size()));
}

// Every field of the engine's answer against the naive one, bitwise.
void expect_same(const EngineChoice& e, const NaiveChoice& nv) {
  ASSERT_EQ(e.valid, nv.valid);
  if (!e.valid) return;
  ASSERT_EQ(e.via, nv.via);
  ASSERT_EQ(e.loss, nv.loss);
  ASSERT_EQ(e.latency, nv.latency);
}

TEST(PathEngineDiff, CappedGraphScansMatchNaive) {
  const int cases = diff_cases(5500) / 2;
  Rng rng(0x2545f4914f6cdd1dULL);
  int router_exits = 0;
  int alt_exits = 0;
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const NeighborSet g = random_graph(rng);
    ASSERT_FALSE(g.full());
    const auto n = static_cast<NodeId>(g.size());
    const TimePoint now =
        TimePoint::epoch() + Duration::seconds(static_cast<std::int64_t>(100 + rng.next_below(400)));
    LinkStateTable table(g);
    random_sparse_table(rng, g, table, now);
    const NodeId src = random_endpoint(rng, g);
    NodeId dst = random_endpoint(rng, g);
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);
    std::vector<bool> held_storage;
    const std::vector<bool>* held = random_mask(rng, n, held_storage);
    const std::vector<NodeId> barred = barred_list(held);
    const bool include_direct = !rng.bernoulli(0.25);

    // Router query: relays from N(src) u N(dst) only; the naive
    // reference gets the restriction as an explicit mask.
    {
      const RouterConfig cfg = random_cfg(rng);
      std::vector<bool> mask(n, true);
      for (const NodeId v : g.neighbors(src)) mask[v] = false;
      for (const NodeId v : g.neighbors(dst)) mask[v] = false;
      for (const NodeId v : barred) mask[v] = true;
      const RelayFilter filter{
          .endpoint_rows = true, .excluded = barred, .include_direct = include_direct};
      PathEngine engine(table, cfg);
      const NaiveRelay R = naive_relay(table, cfg, src, dst, now, &mask);
      expect_same(engine.best_loss(src, dst, now, filter),
                  naive_best_loss(R, table, cfg, src, dst, now, include_direct));
      if (has_lossless_relay(table, cfg, src, dst, now, &mask)) ++router_exits;
      expect_same(engine.best_latency(src, dst, now, filter),
                  naive_best_latency(R, table, cfg, src, dst, now, include_direct));
    }
    // Alternate query: every node is a candidate, entries trusted
    // forever, so a relay adjacent to neither endpoint reads two
    // pristine zero-loss legs.
    {
      RouterConfig cfg = random_cfg(rng);
      cfg.entry_ttl = Duration::zero();
      const RelayFilter filter{.excluded = barred, .include_direct = include_direct};
      PathEngine engine(table, cfg);
      const NaiveRelay R = naive_relay(table, cfg, src, dst, now, held);
      expect_same(engine.best_loss(src, dst, now, filter),
                  naive_best_loss(R, table, cfg, src, dst, now, include_direct));
      if (has_lossless_relay(table, cfg, src, dst, now, held)) ++alt_exits;
      expect_same(engine.best_latency(src, dst, now, filter),
                  naive_best_latency(R, table, cfg, src, dst, now, include_direct));
    }
    if (HasFatalFailure()) return;
  }
  // Both scans met a relay with survival exactly 1.0, where the loss
  // scan may stop early, in a good share of cases.
  EXPECT_GE(router_exits * 20, cases);
  EXPECT_GE(alt_exits * 4, cases);
}

}  // namespace
}  // namespace ronpath
