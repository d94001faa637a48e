#include "overlay/path_engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ronpath {

PathSpec HopPath::to_spec(NodeId src, NodeId dst) const {
  assert(count <= 2);
  PathSpec p{src, dst, kDirectVia, kDirectVia};
  if (count >= 1) p.via = hops[0];
  if (count >= 2) p.via2 = hops[1];
  return p;
}

namespace {

// Objective policies. Values are chosen so per-edge composition
// reproduces the legacy estimate expressions bit-for-bit:
//   loss     : survival product (1-l1)*(1-l2)*..., left-associated;
//              the query converts to loss as 1.0 - product.
//   latency  : saturating_add chain, Duration::max() absorbing (one
//              relay only).
// Each objective also names its selection: `penalized` is the value an
// r-relay chain competes with in the final pick (the raw link metric
// for the direct path), stored in `selected` of the choice.
struct LossObj {
  using Value = double;
  using Link = double;
  static constexpr Value kUnset = -1.0;  // below any survival in [0, 1]
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_loss(m, cfg, now);
  }
  static Value seed(Link l) { return 1.0 - l; }
  static Value extend(Value prev, Link l) { return prev * (1.0 - l); }
  static bool better(Value a, Value b) { return a > b; }
  // Losses lie in [0, 1], so survival never exceeds 1.0.
  static bool unbeatable(Value v) { return v == 1.0; }
  static double penalized(Value v, int r, const RouterConfig& cfg) {
    return (1.0 - v) + static_cast<double>(r) * cfg.indirect_loss_penalty;
  }
  static double& selected(EngineChoice& c) { return c.loss; }
};

struct LatObj {
  using Value = Duration;
  using Link = Duration;
  static constexpr Value kUnset = Duration::min();  // negative: no real chain
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_latency(m, cfg, now);
  }
  static Value seed(Link l) { return l; }
  static Value extend(Value prev, Link l) { return Duration::saturating_add(prev, l); }
  static bool better(Value a, Value b) { return a < b; }
  static bool unbeatable(Value) { return false; }
  static Duration penalized(Value v, int r, const RouterConfig& cfg) {
    Duration cand = Duration::saturating_add(v, cfg.forward_delay);
    if (cand != Duration::max()) cand += cfg.indirect_lat_penalty * r;
    return cand;
  }
  static Duration& selected(EngineChoice& c) { return c.latency; }
};

// Final penalized selection. Candidates are compared by penalized value
// with strict improvement, rounds ascending after the direct path, so
// equal values resolve to fewer relays. Expressions match the legacy
// router's composition exactly: the direct path reports the raw link
// metric; round r adds r * indirect_*_penalty (1x and 2.0x match the
// legacy one- and two-hop loss forms bit for bit).
template <class Obj>
EngineChoice direct_choice(typename Obj::Link direct, bool include_direct) {
  EngineChoice best;
  best.valid = include_direct;
  if (include_direct) Obj::selected(best) = direct;
  return best;
}

template <class Obj>
void offer(EngineChoice& best, const RouterConfig& cfg, int r, typename Obj::Value v,
           const HopPath& path) {
  const auto cand = Obj::penalized(v, r, cfg);
  if (!best.valid || cand < Obj::selected(best)) {
    best.valid = true;
    best.path = path;
    Obj::selected(best) = cand;
    best.hop_count = r;
  }
}

// Visits the one-relay candidates of src -> dst in ascending id order as
// visit(u, get(src, u), get(u, dst)) until visit returns false. The
// candidates are every node but the endpoints or, with `endpoint_rows`,
// the sorted merge of the two endpoint rows. Legs are read by edge rank:
// (src, u) at src's row offset and (u, dst) through the reverse of
// (dst, u), both O(1); a leg between non-adjacent nodes reads the
// pristine entry, exactly as get() does.
template <class Visit>
void for_each_relay(const LinkStateTable& t, NodeId src, NodeId dst, bool endpoint_rows,
                    Visit&& visit) {
  const NeighborSet& g = t.neighbors();
  const auto a = g.neighbors(src);
  const auto b = g.neighbors(dst);
  const std::size_t a_edge = g.row_begin(src);
  const std::size_t b_edge = g.row_begin(dst);
  const auto head = [](std::span<const NodeId> row, std::size_t i) {
    return i < row.size() ? row[i] : kInvalidNode;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  for (NodeId u = 0;; ++u) {
    if (endpoint_rows) u = std::min(head(a, i), head(b, j));
    if (u >= t.size()) return;  // also kInvalidNode: both rows consumed
    const LinkMetrics& in = head(a, i) == u ? t.at_edge(a_edge + i++) : LinkStateTable::pristine();
    const LinkMetrics& out =
        head(b, j) == u ? t.at_edge(g.reverse_edge(b_edge + j++)) : LinkStateTable::pristine();
    if (u != src && u != dst && !visit(u, in, out)) return;
  }
}

// One-relay query: a single ascending scan with the kernel's seed,
// extend and strict-improvement expressions (so ties resolve to the
// smallest relay, as in round 1 of the tables), then the round-1 pick.
template <class Obj>
EngineChoice one_relay(const LinkStateTable& t, const RouterConfig& cfg, EngineStats& stats,
                       NodeId src, NodeId dst, TimePoint now, const RelayFilter& f) {
  assert(std::is_sorted(f.excluded.begin(), f.excluded.end()));
  const auto link = [&](const LinkMetrics& m) { return Obj::link(m, cfg, now); };
  EngineChoice best = direct_choice<Obj>(link(t.get(src, dst)), f.include_direct);
  typename Obj::Value top = Obj::kUnset;
  NodeId via = kInvalidNode;
  auto barred = f.excluded.begin();
  for_each_relay(t, src, dst, f.endpoint_rows,
                 [&](NodeId u, const LinkMetrics& in, const LinkMetrics& out) {
                   while (barred != f.excluded.end() && *barred < u) ++barred;
                   if (!t.node_seems_up(u) || (barred != f.excluded.end() && *barred == u)) {
                     return true;
                   }
                   ++stats.edges_relaxed;
                   const auto cand = Obj::extend(Obj::seed(link(in)), link(out));
                   if (via == kInvalidNode || Obj::better(cand, top)) {
                     top = cand;
                     via = u;
                   }
                   return !Obj::unbeatable(top);
                 });
  if (via != kInvalidNode) {
    HopPath path;
    path.hops[0] = via;
    path.count = 1;
    offer<Obj>(best, cfg, 1, top, path);
  }
  return best;
}

// Relaxation kernel of a k >= 2 loss query over flat label arrays.
// All tie-breaks are "strict improvement scanning predecessors in
// ascending order" (equivalently: better value, else smaller parent
// id), which is the order the differential reference replicates.
struct RoundKernel {
  const LinkStateTable& table;
  const RouterConfig& cfg;
  std::size_t n;
  NodeId src;
  // Banned relay: the queried destination. The legacy scans never relay
  // through dst, and with a zero penalty a chain revisiting dst can
  // out-round the direct path by one ulp.
  NodeId ban;
  const std::vector<bool>& live;
  TimePoint now;
  std::vector<double>& val;  // survival, [(round) * n + node]
  std::vector<NodeId>& par;  // kInvalidNode == unset; src at round 0
  EngineStats& stats;

  [[nodiscard]] double edge(NodeId u, NodeId w) const {
    return LossObj::link(table.get(u, w), cfg, now);
  }

  // A node may act as a relay source for round r when it is not the
  // query source, currently seems up, has a round r-1 label, and is not
  // stagnant: a label whose value did not change between rounds r-2 and
  // r-1 offers no candidate that round r-1 did not already record with
  // one fewer relay (marked-node pruning; dominance argument in
  // DESIGN.md).
  [[nodiscard]] bool admissible(NodeId u, int r) {
    if (u == src || u == ban || !live[u]) return false;
    if (par[static_cast<std::size_t>(r - 1) * n + u] == kInvalidNode) return false;
    if (r >= 2 && val[static_cast<std::size_t>(r - 1) * n + u] ==
                      val[static_cast<std::size_t>(r - 2) * n + u]) {
      ++stats.sources_skipped;
      return false;
    }
    return true;
  }

  void seed_round0() {
    for (NodeId w = 0; w < n; ++w) {
      if (w == src) {
        val[w] = LossObj::kUnset;
        par[w] = kInvalidNode;
      } else {
        val[w] = LossObj::seed(edge(src, w));
        par[w] = src;
      }
    }
  }

  // Offers label(r-1, u) + edge(u, w) as a candidate for label(r, w).
  void cand_check(int r, NodeId w, NodeId u) {
    ++stats.edges_relaxed;
    const std::size_t i = static_cast<std::size_t>(r) * n + w;
    const double cand = LossObj::extend(val[static_cast<std::size_t>(r - 1) * n + u], edge(u, w));
    if (par[i] == kInvalidNode || LossObj::better(cand, val[i]) ||
        (cand == val[i] && u < par[i])) {
      val[i] = cand;
      par[i] = u;
    }
  }

  // Full round-r relax. `only`, when valid, restricts targets to one
  // node (the query's final round).
  void relax_round(int r, NodeId only = kInvalidNode) {
    const std::size_t base = static_cast<std::size_t>(r) * n;
    if (only != kInvalidNode) {
      val[base + only] = LossObj::kUnset;
      par[base + only] = kInvalidNode;
    } else {
      for (NodeId w = 0; w < n; ++w) {
        val[base + w] = LossObj::kUnset;
        par[base + w] = kInvalidNode;
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      if (!admissible(u, r)) continue;
      if (only != kInvalidNode) {
        if (only != u && only != src) cand_check(r, only, u);
        continue;
      }
      for (NodeId w = 0; w < n; ++w) {
        if (w == u || w == src) continue;
        cand_check(r, w, u);
      }
    }
  }

  [[nodiscard]] HopPath chain_of(int r, NodeId dst) const {
    HopPath h;
    h.count = r;
    NodeId w = dst;
    for (int rr = r; rr >= 1; --rr) {
      const NodeId u = par[static_cast<std::size_t>(rr) * n + w];
      h.hops[rr - 1] = u;
      w = u;
    }
    return h;
  }
};

}  // namespace

PathEngine::PathEngine(const LinkStateTable& table, const RouterConfig& cfg)
    : table_(table), cfg_(cfg), n_(table.size()) {}

void PathEngine::ensure_scratch() {
  const std::size_t want = static_cast<std::size_t>(kMaxRounds + 1) * n_;
  if (q_val_.size() != want) {
    q_val_.assign(want, LossObj::kUnset);
    q_par_.assign(want, kInvalidNode);
    q_live_.assign(n_, false);
  }
}

EngineChoice PathEngine::best_loss(NodeId src, NodeId dst, TimePoint now,
                                   const RelayFilter& filter) {
  assert(src < n_ && dst < n_ && src != dst);
  return one_relay<LossObj>(table_, cfg_, stats_, src, dst, now, filter);
}

EngineChoice PathEngine::best_latency(NodeId src, NodeId dst, TimePoint now,
                                      const RelayFilter& filter) {
  assert(src < n_ && dst < n_ && src != dst);
  return one_relay<LatObj>(table_, cfg_, stats_, src, dst, now, filter);
}

EngineChoice PathEngine::best_loss(NodeId src, NodeId dst, int max_hops, TimePoint now) {
  assert(src < n_ && dst < n_ && src != dst);
  if (max_hops < 1 || max_hops > kMaxRounds) {
    throw std::invalid_argument("path engine: max_hops " + std::to_string(max_hops) +
                                " outside [1, " + std::to_string(kMaxRounds) + "]");
  }
  if (max_hops == 1) return best_loss(src, dst, now, RelayFilter{});
  ensure_scratch();
  for (NodeId v = 0; v < n_; ++v) q_live_[v] = table_.node_seems_up(v);
  RoundKernel kern{table_, cfg_, n_, src, /*ban=*/dst, q_live_, now, q_val_, q_par_, stats_};
  kern.seed_round0();
  for (int r = 1; r <= max_hops; ++r) kern.relax_round(r, r == max_hops ? dst : kInvalidNode);
  EngineChoice best = direct_choice<LossObj>(kern.edge(src, dst), /*include_direct=*/true);
  for (int r = 1; r <= max_hops; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * n_ + dst;
    if (q_par_[i] != kInvalidNode) offer<LossObj>(best, cfg_, r, q_val_[i], kern.chain_of(r, dst));
  }
  return best;
}

std::vector<NodeId> PathEngine::live_relays(NodeId src, NodeId dst) const {
  std::vector<NodeId> out;
  for_each_relay(table_, src, dst, /*endpoint_rows=*/true,
                 [&](NodeId u, const LinkMetrics&, const LinkMetrics&) {
                   if (table_.node_seems_up(u)) out.push_back(u);
                   return true;
                 });
  return out;
}

}  // namespace ronpath
