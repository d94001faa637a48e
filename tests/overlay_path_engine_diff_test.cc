// Differential test layer for the path engine.
//
// Two independent references pin the engine on randomized link-state
// tables:
//
//   * a NAIVE reference that implements the selection spec with none of
//     the engine's machinery: labels by a plain per-(round, node) scan,
//     no marked-set pruning, no lazy final round, recomputed from
//     scratch per query. Full results (path, value, round) must match
//     bit for bit — this is what proves the pruning and laziness are
//     behavior-preserving.
//   * a BRUTE-FORCE enumerator over all simple relay tuples, which
//     never builds labels at all. Its best penalized value and hop
//     count must match — this is what proves label chains that revisit
//     nodes never win a query.
//
// The one-relay queries (relay filters, both objectives) are pinned at
// k = 1 and the unfiltered loss round search at k = 1..3. Additional
// legacy-equivalence checks pin the engine to the historical router
// scans it replaced: the one-hop evaluate loop (paths bitwise) and the
// interleaved two-hop scan (values bitwise). Capped-graph cases pin the
// one-relay scan over sparse tables: the router's query (relays from
// the two endpoint rows) and the hybrid alternate's (every node,
// trusting entries forever).
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
// Reference A: naive labels, no pruning, no laziness.

struct NaiveChoice {
  std::vector<NodeId> relays;
  double loss = 0.0;
  Duration latency = Duration::zero();
  int hops = 0;
  bool valid = true;
};

struct NaiveLabels {
  std::size_t n = 0;
  std::vector<double> sval;  // survival
  std::vector<NodeId> spar;
  std::vector<Duration> lval;
  std::vector<NodeId> lpar;
};

NaiveLabels naive_labels(const LinkStateTable& t, const RouterConfig& cfg, NodeId src, NodeId ban,
                         int k, TimePoint now, const std::vector<bool>* excluded) {
  NaiveLabels L;
  const std::size_t n = t.size();
  L.n = n;
  const auto live = liveness(t);
  L.sval.assign(static_cast<std::size_t>(k + 1) * n, -1.0);
  L.spar.assign(static_cast<std::size_t>(k + 1) * n, kInvalidNode);
  L.lval.assign(static_cast<std::size_t>(k + 1) * n, Duration::min());
  L.lpar.assign(static_cast<std::size_t>(k + 1) * n, kInvalidNode);
  for (NodeId w = 0; w < n; ++w) {
    if (w == src) continue;
    L.sval[w] = 1.0 - link_loss(t.get(src, w), cfg, now);
    L.spar[w] = src;
    L.lval[w] = link_latency(t.get(src, w), cfg, now);
    L.lpar[w] = src;
  }
  for (int r = 1; r <= k; ++r) {
    for (NodeId w = 0; w < n; ++w) {
      if (w == src) continue;
      const std::size_t i = static_cast<std::size_t>(r) * n + w;
      for (NodeId u = 0; u < n; ++u) {
        if (u == w || u == src || u == ban || !live[u]) continue;
        if (excluded != nullptr && (*excluded)[u]) continue;
        const std::size_t p = static_cast<std::size_t>(r - 1) * n + u;
        if (L.spar[p] != kInvalidNode) {
          const double c = L.sval[p] * (1.0 - link_loss(t.get(u, w), cfg, now));
          if (L.spar[i] == kInvalidNode || c > L.sval[i]) {
            L.sval[i] = c;
            L.spar[i] = u;
          }
        }
        if (L.lpar[p] != kInvalidNode) {
          const Duration c = Duration::saturating_add(L.lval[p], link_latency(t.get(u, w), cfg, now));
          if (L.lpar[i] == kInvalidNode || c < L.lval[i]) {
            L.lval[i] = c;
            L.lpar[i] = u;
          }
        }
      }
    }
  }
  return L;
}

std::vector<NodeId> naive_chain(const std::vector<NodeId>& par, std::size_t n, int r, NodeId dst) {
  std::vector<NodeId> relays(static_cast<std::size_t>(r));
  NodeId w = dst;
  for (int rr = r; rr >= 1; --rr) {
    const NodeId u = par[static_cast<std::size_t>(rr) * n + w];
    relays[static_cast<std::size_t>(rr) - 1] = u;
    w = u;
  }
  return relays;
}

NaiveChoice naive_best_loss(const NaiveLabels& L, const LinkStateTable& t, const RouterConfig& cfg,
                            NodeId src, NodeId dst, int k, TimePoint now, bool include_direct) {
  NaiveChoice best;
  best.valid = false;
  if (include_direct) {
    best.valid = true;
    best.loss = link_loss(t.get(src, dst), cfg, now);
    best.hops = 0;
  }
  for (int r = 1; r <= k; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * L.n + dst;
    if (L.spar[i] == kInvalidNode) continue;
    const double cand = (1.0 - L.sval[i]) + static_cast<double>(r) * cfg.indirect_loss_penalty;
    if (!best.valid || cand < best.loss) {
      best.valid = true;
      best.loss = cand;
      best.hops = r;
      best.relays = naive_chain(L.spar, L.n, r, dst);
    }
  }
  return best;
}

// The latency objective is a one-relay query: round 1 of the labels.
NaiveChoice naive_best_latency(const NaiveLabels& L, const LinkStateTable& t,
                               const RouterConfig& cfg, NodeId src, NodeId dst, TimePoint now,
                               bool include_direct) {
  NaiveChoice best;
  best.valid = false;
  if (include_direct) {
    best.valid = true;
    best.latency = link_latency(t.get(src, dst), cfg, now);
    best.hops = 0;
  }
  const std::size_t i = L.n + dst;
  if (L.lpar[i] == kInvalidNode) return best;
  Duration cand = Duration::saturating_add(L.lval[i], cfg.forward_delay);
  if (cand != Duration::max()) cand += cfg.indirect_lat_penalty;
  if (!best.valid || cand < best.latency) {
    best.valid = true;
    best.latency = cand;
    best.hops = 1;
    best.relays = naive_chain(L.lpar, L.n, 1, dst);
  }
  return best;
}

// ---------------------------------------------------------------------
// Reference B: brute-force enumeration of simple relay tuples.

struct EnumBest {
  double loss = 0.0;
  Duration latency = Duration::zero();
  int hops = 0;
  bool valid = false;
};

template <class Fn>
void for_each_tuple(const std::vector<NodeId>& pool, int r, std::vector<NodeId>& tuple, Fn&& fn) {
  if (static_cast<int>(tuple.size()) == r) {
    fn(tuple);
    return;
  }
  for (NodeId v : pool) {
    bool used = false;
    for (NodeId u : tuple) used = used || u == v;
    if (used) continue;
    tuple.push_back(v);
    for_each_tuple(pool, r, tuple, fn);
    tuple.pop_back();
  }
}

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
                        int k, TimePoint now, const std::vector<bool>* excluded,
                        bool include_direct) {
  EnumBest best;
  if (include_direct) {
    best.valid = true;
    best.loss = link_loss(t.get(src, dst), cfg, now);
    best.hops = 0;
  }
  const auto pool = relay_pool(t, src, dst, excluded);
  std::vector<NodeId> tuple;
  for (int r = 1; r <= k; ++r) {
    for_each_tuple(pool, r, tuple, [&](const std::vector<NodeId>& relays) {
      double s = 1.0 - link_loss(t.get(src, relays[0]), cfg, now);
      for (std::size_t j = 1; j < relays.size(); ++j) {
        s = s * (1.0 - link_loss(t.get(relays[j - 1], relays[j]), cfg, now));
      }
      s = s * (1.0 - link_loss(t.get(relays.back(), dst), cfg, now));
      const double cand = (1.0 - s) + static_cast<double>(r) * cfg.indirect_loss_penalty;
      if (!best.valid || cand < best.loss) {
        best.valid = true;
        best.loss = cand;
        best.hops = r;
      }
    });
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
    best.hops = 0;
  }
  for (const NodeId v : relay_pool(t, src, dst, excluded)) {
    const Duration d = Duration::saturating_add(link_latency(t.get(src, v), cfg, now),
                                                link_latency(t.get(v, dst), cfg, now));
    Duration cand = Duration::saturating_add(d, cfg.forward_delay);
    if (cand != Duration::max()) cand += cfg.indirect_lat_penalty;
    if (!best.valid || cand < best.latency) {
      best.valid = true;
      best.latency = cand;
      best.hops = 1;
    }
  }
  return best;
}

// ---------------------------------------------------------------------

std::vector<NodeId> engine_relays(const EngineChoice& c) {
  std::vector<NodeId> out;
  for (int j = 0; j < c.path.count; ++j) out.push_back(c.path.hops[static_cast<std::size_t>(j)]);
  return out;
}

// ---------------------------------------------------------------------
// Every query vs both references: the unfiltered loss round search at a
// random depth, and the filtered one-relay queries under both
// objectives.

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
    const int k = static_cast<int>(1 + rng.next_below(3));
    std::vector<bool> mask_storage;
    const std::vector<bool>* mask = random_mask(rng, n, mask_storage);
    const bool include_direct = !rng.bernoulli(0.25);

    PathEngine engine(table, cfg);
    {
      SCOPED_TRACE("rounds k=" + std::to_string(k));
      const NaiveLabels L = naive_labels(table, cfg, src, /*ban=*/dst, k, now, nullptr);
      const EngineChoice e = engine.best_loss(src, dst, k, now);
      const NaiveChoice nv = naive_best_loss(L, table, cfg, src, dst, k, now, true);
      ASSERT_TRUE(e.valid);
      ASSERT_TRUE(nv.valid);
      ASSERT_EQ(e.loss, nv.loss);  // bitwise: same expression DAG
      ASSERT_EQ(e.hop_count, nv.hops);
      ASSERT_EQ(engine_relays(e), nv.relays);
      const EnumBest en = enum_best_loss(table, cfg, src, dst, k, now, nullptr, true);
      ASSERT_TRUE(en.valid);
      ASSERT_EQ(e.loss, en.loss);
      ASSERT_EQ(e.hop_count, en.hops);
    }

    const NaiveLabels L = naive_labels(table, cfg, src, /*ban=*/dst, 1, now, mask);
    const std::vector<NodeId> barred = barred_list(mask);
    const RelayFilter filter{.excluded = barred, .include_direct = include_direct};
    {
      const EngineChoice e = engine.best_loss(src, dst, now, filter);
      const NaiveChoice nv = naive_best_loss(L, table, cfg, src, dst, 1, now, include_direct);
      ASSERT_EQ(e.valid, nv.valid);
      if (e.valid) {
        ASSERT_EQ(e.loss, nv.loss);
        ASSERT_EQ(e.hop_count, nv.hops);
        ASSERT_EQ(engine_relays(e), nv.relays);
      }
      const EnumBest en = enum_best_loss(table, cfg, src, dst, 1, now, mask, include_direct);
      ASSERT_EQ(e.valid, en.valid);
      if (e.valid) {
        ASSERT_EQ(e.loss, en.loss);
        ASSERT_EQ(e.hop_count, en.hops);
      }
    }
    {
      const EngineChoice e = engine.best_latency(src, dst, now, filter);
      const NaiveChoice nv = naive_best_latency(L, table, cfg, src, dst, now, include_direct);
      ASSERT_EQ(e.valid, nv.valid);
      if (e.valid) {
        ASSERT_EQ(e.latency, nv.latency);
        ASSERT_EQ(e.hop_count, nv.hops);
        ASSERT_EQ(engine_relays(e), nv.relays);
      }
      const EnumBest en = enum_best_latency(table, cfg, src, dst, now, mask, include_direct);
      ASSERT_EQ(e.valid, en.valid);
      if (e.valid) {
        ASSERT_EQ(e.latency, en.latency);
        ASSERT_EQ(e.hop_count, en.hops);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Legacy-equivalence: the engine at k == 1 is the historical router
// scan, path and value bitwise.

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
      ASSERT_EQ(e.path.to_spec(src, dst), best);
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
      ASSERT_EQ(e.path.to_spec(src, dst), best);
      ASSERT_EQ(e.latency, best_lat);
    }
  }
}

// The historical two-hop bolt-on scanned (v1, then v1's two-hop
// extensions) interleaved; the engine scans by round. Both minimize
// over the identical candidate set, so the selected penalized value is
// identical even where a cross-round tie makes the chosen path differ.
TEST(PathEngineDiff, TwoHopValueMatchesLegacyInterleavedScan) {
  const int cases = diff_cases(5500) / 2;
  Rng rng(0x8bb84b93962eacc9ULL);
  for (int i = 0; i < cases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto n = static_cast<NodeId>(3 + rng.next_below(7));
    const TimePoint now = TimePoint::epoch();
    RouterConfig cfg = random_cfg(rng);
    cfg.entry_ttl = Duration::zero();  // the legacy scan trusted entries forever
    LinkStateTable table(n);
    random_table(rng, table, now);
    const auto src = static_cast<NodeId>(rng.next_below(n));
    auto dst = static_cast<NodeId>(rng.next_below(n));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % n);

    // The historical interleaved two-relay loop, verbatim.
    const PathSpec direct{src, dst, kDirectVia};
    double best_loss = path_loss_estimate(table, direct, cfg, now);
    std::vector<NodeId> vias;
    for (NodeId v = 0; v < n; ++v) {
      if (v != src && v != dst && table.node_seems_up(v)) vias.push_back(v);
    }
    for (NodeId v1 : vias) {
      const double l1 =
          path_loss_estimate(table, PathSpec{src, dst, v1}, cfg, now) + cfg.indirect_loss_penalty;
      if (l1 < best_loss) best_loss = l1;
      for (NodeId v2 : vias) {
        if (v2 == v1) continue;
        const double l2 = path_loss_estimate(table, PathSpec{src, dst, v1, v2}, cfg, now) +
                          2.0 * cfg.indirect_loss_penalty;
        if (l2 < best_loss) best_loss = l2;
      }
    }

    PathEngine engine(table, cfg);
    const EngineChoice e = engine.best_loss(src, dst, 2, now);
    ASSERT_TRUE(e.valid);
    ASSERT_EQ(e.loss, best_loss);
    // The engine's chosen path re-evaluates to its claimed value.
    const PathSpec spec = e.path.to_spec(src, dst);
    const double repriced =
        path_loss_estimate(table, spec, cfg, now) +
        static_cast<double>(e.hop_count) * cfg.indirect_loss_penalty;
    ASSERT_EQ(repriced, e.loss);
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
  ASSERT_EQ(engine_relays(e), nv.relays);
  ASSERT_EQ(e.hop_count, nv.hops);
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
      const NaiveLabels L = naive_labels(table, cfg, src, /*ban=*/dst, 1, now, &mask);
      expect_same(engine.best_loss(src, dst, now, filter),
                  naive_best_loss(L, table, cfg, src, dst, 1, now, include_direct));
      // The loss scan evaluated fewer relays than the pool holds only if
      // it stopped early.
      if (engine.stats().edges_relaxed < relay_pool(table, src, dst, &mask).size()) {
        ++router_exits;
      }
      expect_same(engine.best_latency(src, dst, now, filter),
                  naive_best_latency(L, table, cfg, src, dst, now, include_direct));
    }
    // Alternate query: every node is a candidate, entries trusted
    // forever, so a relay adjacent to neither endpoint reads two
    // pristine zero-loss legs.
    {
      RouterConfig cfg = random_cfg(rng);
      cfg.entry_ttl = Duration::zero();
      const RelayFilter filter{.excluded = barred, .include_direct = include_direct};
      PathEngine engine(table, cfg);
      const NaiveLabels L = naive_labels(table, cfg, src, /*ban=*/dst, 1, now, held);
      expect_same(engine.best_loss(src, dst, now, filter),
                  naive_best_loss(L, table, cfg, src, dst, 1, now, include_direct));
      if (engine.stats().edges_relaxed < relay_pool(table, src, dst, held).size()) ++alt_exits;
      expect_same(engine.best_latency(src, dst, now, filter),
                  naive_best_latency(L, table, cfg, src, dst, now, include_direct));
    }
    if (HasFatalFailure()) return;
  }
  // Both scans took the survival-1.0 exit in a good share of cases.
  EXPECT_GE(router_exits * 20, cases);
  EXPECT_GE(alt_exits * 4, cases);
}

}  // namespace
}  // namespace ronpath
