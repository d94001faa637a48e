#include "overlay/path_engine.h"

#include <algorithm>
#include <cassert>

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
//   latency  : saturating_add chain, Duration::max() absorbing.
// Each objective also names its selection: `penalized` is the value an
// r-relay chain competes with in the final pick (the raw link metric
// for the direct path), stored in `selected` of the choice.
struct LossObj {
  using Value = double;
  using Link = double;
  static constexpr Value kUnset = -1.0;  // below any survival in [0, 1]
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, bool expired) {
    return link_loss(m, cfg, expired);
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
  static Link link(const LinkMetrics& m, const RouterConfig& cfg, bool expired) {
    return link_latency(m, cfg, expired);
  }
  static Value seed(Link l) { return l; }
  static Value extend(Value prev, Link l) { return Duration::saturating_add(prev, l); }
  static bool better(Value a, Value b) { return a < b; }
  static bool unbeatable(Value) { return false; }
  // r forwarding delays, accumulated by repeated addition so r == 2
  // reproduces the legacy `forward_delay + forward_delay` exactly.
  static Duration penalized(Value v, int r, const RouterConfig& cfg) {
    Duration fwd = cfg.forward_delay;
    for (int j = 1; j < r; ++j) fwd = fwd + cfg.forward_delay;
    Duration cand = Duration::saturating_add(v, fwd);
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
// legacy one- and two-hop forms bit for bit).
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
// candidates are every node but the endpoints or, with `endpoint_rows`
// over a sparse table, the sorted merge of the two endpoint rows. A
// sparse table is read by edge rank: (src, u) at src's row offset and
// (u, dst) through the reverse of (dst, u), both O(1); a leg between
// non-adjacent nodes reads the pristine entry, exactly as get() does.
template <class Visit>
void for_each_relay(const LinkStateTable& t, NodeId src, NodeId dst, bool endpoint_rows,
                    Visit&& visit) {
  const NeighborSet* g = t.neighbors();
  if (g == nullptr) {  // dense: get() is an O(1) index
    for (NodeId u = 0; u < t.size(); ++u) {
      if (u != src && u != dst && !visit(u, t.get(src, u), t.get(u, dst))) return;
    }
    return;
  }
  const auto a = g->neighbors(src);
  const auto b = g->neighbors(dst);
  const std::size_t a_edge = g->row_begin(src);
  const std::size_t b_edge = g->row_begin(dst);
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
        head(b, j) == u ? t.at_edge(g->reverse_edge(b_edge + j++)) : LinkStateTable::pristine();
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
  const auto link = [&](const LinkMetrics& m) {
    return Obj::link(m, cfg, entry_expired(m, cfg, now));
  };
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

}  // namespace

// Relaxation kernel shared by scratch, per-query and incremental
// paths. Operates on one objective's flat label arrays. All tie-breaks
// are "strict improvement scanning predecessors in ascending order"
// (equivalently: better value, else smaller parent id), which is the
// order the differential reference replicates.
template <class Obj>
struct EngineKernel {
  using Value = typename Obj::Value;

  const LinkStateTable& table;
  const RouterConfig& cfg;
  std::size_t n;
  NodeId src;
  // Banned relay (per-query mode passes the destination: the legacy
  // scans never relay through dst, and with a zero penalty a chain
  // revisiting dst can out-round the direct path by one ulp). Shared
  // tables serve every destination, so they leave this unset and rely
  // on per-relay penalties to dominate such chains.
  NodeId ban;
  const std::vector<bool>& live;
  const std::vector<bool>* excluded;       // may be null
  const std::vector<bool>* expired_table;  // shared mode; null => use `now`
  TimePoint now;
  std::vector<Value>& val;   // [(round) * n + node]
  std::vector<NodeId>& par;  // kInvalidNode == unset; src at round 0
  EngineStats& stats;

  [[nodiscard]] typename Obj::Link edge(NodeId u, NodeId w) const {
    const LinkMetrics& m = table.get(u, w);
    const bool exp = expired_table != nullptr
                         ? (*expired_table)[static_cast<std::size_t>(u) * n + w]
                         : entry_expired(m, cfg, now);
    return Obj::link(m, cfg, exp);
  }

  // A node may act as a relay source for round r when it is not the
  // query source, currently seems up, is not excluded (hold-down), has
  // a round r-1 label, and is not stagnant: a label whose value did not
  // change between rounds r-2 and r-1 offers no candidate that round
  // r-1 did not already record with one fewer relay (marked-node
  // pruning; dominance argument in DESIGN.md).
  [[nodiscard]] bool admissible(NodeId u, int r) {
    if (u == src || u == ban || !live[u]) return false;
    if (excluded != nullptr && (*excluded)[u]) return false;
    if (par[static_cast<std::size_t>(r - 1) * n + u] == kInvalidNode) return false;
    if (r >= 2 && val[static_cast<std::size_t>(r - 1) * n + u] ==
                      val[static_cast<std::size_t>(r - 2) * n + u]) {
      ++stats.sources_skipped;
      return false;
    }
    return true;
  }

  void seed_one(NodeId w) {
    if (w == src) {
      val[w] = Obj::kUnset;
      par[w] = kInvalidNode;
      return;
    }
    val[w] = Obj::seed(edge(src, w));
    par[w] = src;
  }

  void seed_round0() {
    for (NodeId w = 0; w < n; ++w) seed_one(w);
  }

  // Offers label(r-1, u) + edge(u, w) as a candidate for label(r, w).
  // Returns true when the label changed (value or parent).
  bool cand_check(int r, NodeId w, NodeId u) {
    ++stats.edges_relaxed;
    const std::size_t i = static_cast<std::size_t>(r) * n + w;
    const Value cand = Obj::extend(val[static_cast<std::size_t>(r - 1) * n + u], edge(u, w));
    if (par[i] == kInvalidNode || Obj::better(cand, val[i]) ||
        (cand == val[i] && u < par[i])) {
      val[i] = cand;
      par[i] = u;
      return true;
    }
    return false;
  }

  // Recomputes label(r, w) from scratch over all admissible sources.
  // Returns true when the result differs from the previous label.
  bool rescan(int r, NodeId w) {
    ++stats.labels_rescanned;
    const std::size_t i = static_cast<std::size_t>(r) * n + w;
    const Value old_val = val[i];
    const NodeId old_par = par[i];
    val[i] = Obj::kUnset;
    par[i] = kInvalidNode;
    if (w != src) {
      for (NodeId u = 0; u < n; ++u) {
        if (u == w || !admissible(u, r)) continue;
        cand_check(r, w, u);
      }
    }
    return val[i] != old_val || par[i] != old_par;
  }

  // Full round-r relax. `only`, when valid, restricts targets to one
  // node (a per-query search's final round).
  void relax_round(int r, NodeId only = kInvalidNode) {
    const std::size_t base = static_cast<std::size_t>(r) * n;
    if (only != kInvalidNode) {
      val[base + only] = Obj::kUnset;
      par[base + only] = kInvalidNode;
    } else {
      for (NodeId w = 0; w < n; ++w) {
        val[base + w] = Obj::kUnset;
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

template struct EngineKernel<LossObj>;
template struct EngineKernel<LatObj>;

PathEngine::PathEngine(const LinkStateTable& table, const RouterConfig& cfg)
    : table_(table), cfg_(cfg), n_(table.size()) {}

void PathEngine::ensure_scratch() {
  const std::size_t want = static_cast<std::size_t>(kMaxRounds + 1) * n_;
  if (q_loss_.value.size() != want) {
    q_loss_.value.assign(want, -1.0);
    q_loss_.parent.assign(want, kInvalidNode);
    q_lat_.value.assign(want, Duration::min());
    q_lat_.parent.assign(want, kInvalidNode);
    q_live_.assign(n_, false);
  }
}

namespace {

template <class Obj>
EngineChoice finish(const EngineKernel<Obj>& k, NodeId dst, int max_hops,
                    typename Obj::Link direct, bool include_direct) {
  EngineChoice best = direct_choice<Obj>(direct, include_direct);
  for (int r = 1; r <= max_hops; ++r) {
    const std::size_t i = static_cast<std::size_t>(r) * k.n + dst;
    if (k.par[i] != kInvalidNode) offer<Obj>(best, k.cfg, r, k.val[i], k.chain_of(r, dst));
  }
  return best;
}

int clamp_rounds(int max_hops) {
  if (max_hops < 1) return 1;
  if (max_hops > PathEngine::kMaxRounds) return PathEngine::kMaxRounds;
  return max_hops;
}

}  // namespace

void PathEngine::refresh_live() {
  for (NodeId v = 0; v < n_; ++v) q_live_[v] = table_.node_seems_up(v);
}

void PathEngine::refresh_expired() {
  expired_.assign(n_ * n_, false);
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId w = 0; w < n_; ++w) {
      if (u == w) continue;
      expired_[static_cast<std::size_t>(u) * n_ + w] =
          entry_expired(table_.get(u, w), cfg_, now_);
    }
  }
}

const std::vector<bool>* PathEngine::relay_mask(NodeId src, NodeId dst,
                                                const RelayFilter& filter) {
  const NeighborSet* g = filter.endpoint_rows ? table_.neighbors() : nullptr;
  if (g == nullptr && filter.excluded.empty()) return nullptr;
  q_mask_.assign(n_, g != nullptr);
  if (g != nullptr) {
    for (const NodeId v : g->neighbors(src)) q_mask_[v] = false;
    for (const NodeId v : g->neighbors(dst)) q_mask_[v] = false;
  }
  for (const NodeId v : filter.excluded) q_mask_[v] = true;
  return &q_mask_;
}

template <class Obj, class Labels>
EngineChoice PathEngine::query_rounds(NodeId src, NodeId dst, int rounds, TimePoint now,
                                      const RelayFilter& filter, Labels& labels) {
  ensure_scratch();
  refresh_live();
  EngineKernel<Obj> kern{table_, cfg_, n_, src, /*ban=*/dst, q_live_, relay_mask(src, dst, filter),
                         nullptr, now, labels.value, labels.parent, stats_};
  kern.seed_round0();
  for (int r = 1; r <= rounds; ++r) kern.relax_round(r, r == rounds ? dst : kInvalidNode);
  const LinkMetrics& direct = table_.get(src, dst);
  return finish<Obj>(kern, dst, rounds, Obj::link(direct, cfg_, entry_expired(direct, cfg_, now)),
                     filter.include_direct);
}

EngineChoice PathEngine::best_loss(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                   const RelayFilter& filter) {
  assert(src < n_ && dst < n_ && src != dst);
  const int k = clamp_rounds(max_hops);
  if (k == 1) return one_relay<LossObj>(table_, cfg_, stats_, src, dst, now, filter);
  return query_rounds<LossObj>(src, dst, k, now, filter, q_loss_);
}

EngineChoice PathEngine::best_latency(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                      const RelayFilter& filter) {
  assert(src < n_ && dst < n_ && src != dst);
  const int k = clamp_rounds(max_hops);
  if (k == 1) return one_relay<LatObj>(table_, cfg_, stats_, src, dst, now, filter);
  return query_rounds<LatObj>(src, dst, k, now, filter, q_lat_);
}

std::vector<NodeId> PathEngine::live_relays(NodeId src, NodeId dst, bool endpoint_rows) const {
  std::vector<NodeId> out;
  for_each_relay(table_, src, dst, endpoint_rows,
                 [&](NodeId u, const LinkMetrics&, const LinkMetrics&) {
                   if (table_.node_seems_up(u)) out.push_back(u);
                   return true;
                 });
  return out;
}

void PathEngine::relax_all(NodeId src, int max_hops, TimePoint now) {
  assert(src < n_);
  src_ = src;
  rounds_ = clamp_rounds(max_hops);
  now_ = now;
  const std::size_t want = static_cast<std::size_t>(kMaxRounds + 1) * n_;
  s_loss_.value.assign(want, -1.0);
  s_loss_.parent.assign(want, kInvalidNode);
  s_lat_.value.assign(want, Duration::min());
  s_lat_.parent.assign(want, kInvalidNode);
  live_.assign(n_, false);
  for (NodeId v = 0; v < n_; ++v) live_[v] = table_.node_seems_up(v);
  refresh_expired();

  EngineKernel<LossObj> kl{table_,  cfg_,      n_,   src_,          kInvalidNode,   live_,
                           nullptr, &expired_, now_, s_loss_.value, s_loss_.parent, stats_};
  kl.seed_round0();
  for (int r = 1; r <= rounds_; ++r) kl.relax_round(r);
  EngineKernel<LatObj> kt{table_,  cfg_,      n_,   src_,         kInvalidNode,  live_,
                          nullptr, &expired_, now_, s_lat_.value, s_lat_.parent, stats_};
  kt.seed_round0();
  for (int r = 1; r <= rounds_; ++r) kt.relax_round(r);
  shared_ready_ = true;
}

namespace {

// Incremental re-relaxation driver for one objective. `edges` lists
// republished / expiry-flipped entries; `live_flips` lists nodes whose
// seems-up status flipped. Per round: labels whose recorded parent is a
// dirty source are fully rescanned (its candidate may have worsened),
// every other label gets cheap single-candidate improvement checks from
// the dirty sources. Dirty sources for round r are nodes whose label
// changed at r-1 (candidate value changed) or at r-2 (stagnation
// status, hence admissibility, may have flipped), plus liveness flips.
template <class Obj>
void incremental_pass(EngineKernel<Obj>& k, int rounds,
                      const std::vector<std::pair<NodeId, NodeId>>& edges,
                      const std::vector<NodeId>& live_flips, std::vector<bool>& prev,
                      std::vector<bool>& prev2, std::vector<bool>& cur,
                      std::vector<bool>& rescan_set) {
  const std::size_t n = k.n;
  prev.assign(n, false);
  prev2.assign(n, false);
  std::vector<bool> flip(n, false);
  for (NodeId x : live_flips) flip[x] = true;

  // Round 0: only edges out of the source matter; liveness does not
  // gate the direct label.
  for (const auto& [u, v] : edges) {
    if (u != k.src || v == k.src) continue;
    const std::size_t i = v;
    const typename Obj::Value old_val = k.val[i];
    k.seed_one(v);
    if (k.val[i] != old_val && !prev[v]) {
      prev[v] = true;
      ++k.stats.labels_changed;
    }
  }

  for (int r = 1; r <= rounds; ++r) {
    cur.assign(n, false);
    rescan_set.assign(n, false);
    const std::size_t base = static_cast<std::size_t>(r) * n;
    // (a) Labels that must be fully recomputed: parent is dirty, or the
    // changed edge feeds the recorded parent link.
    for (NodeId w = 0; w < n; ++w) {
      const NodeId p = k.par[base + w];
      if (p == kInvalidNode || p == k.src) continue;
      if (prev[p] || prev2[p] || flip[p]) rescan_set[w] = true;
    }
    for (const auto& [u, v] : edges) {
      if (u == k.src || v == k.src) continue;
      if (k.par[base + v] == u) rescan_set[v] = true;
    }
    for (NodeId w = 0; w < n; ++w) {
      if (rescan_set[w] && k.rescan(r, w)) {
        cur[w] = true;
        ++k.stats.labels_changed;
      }
    }
    // (b) Improvement checks from dirty sources into every other label.
    for (NodeId u = 0; u < n; ++u) {
      if (!prev[u] && !prev2[u] && !flip[u]) continue;
      if (!k.admissible(u, r)) continue;
      for (NodeId w = 0; w < n; ++w) {
        if (w == u || w == k.src || rescan_set[w]) continue;
        if (k.cand_check(r, w, u)) {
          cur[w] = true;
          ++k.stats.labels_changed;
        }
      }
    }
    // (c) Changed edges offer their (possibly improved) candidate.
    for (const auto& [u, v] : edges) {
      if (u == k.src || v == k.src || v == u) continue;
      if (rescan_set[v] || !k.admissible(u, r)) continue;
      if (k.cand_check(r, v, u)) {
        cur[v] = true;
        ++k.stats.labels_changed;
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
}

}  // namespace

void PathEngine::apply_update(NodeId from, NodeId to) {
  assert(shared_ready_);
  assert(from < n_ && to < n_ && from != to);
  expired_[static_cast<std::size_t>(from) * n_ + to] =
      entry_expired(table_.get(from, to), cfg_, now_);
  std::vector<std::pair<NodeId, NodeId>> edges{{from, to}};
  std::vector<NodeId> flips;
  for (NodeId x : {from, to}) {
    if (x == src_) continue;
    const bool up = table_.node_seems_up(x);
    if (up != live_[x]) {
      live_[x] = up;
      flips.push_back(x);
    }
  }
  EngineKernel<LossObj> kl{table_,  cfg_,      n_,   src_,          kInvalidNode,   live_,
                           nullptr, &expired_, now_, s_loss_.value, s_loss_.parent, stats_};
  incremental_pass(kl, rounds_, edges, flips, changed_prev_, changed_prev2_, changed_cur_,
                   rescan_);
  EngineKernel<LatObj> kt{table_,  cfg_,      n_,   src_,         kInvalidNode,  live_,
                          nullptr, &expired_, now_, s_lat_.value, s_lat_.parent, stats_};
  incremental_pass(kt, rounds_, edges, flips, changed_prev_, changed_prev2_, changed_cur_,
                   rescan_);
}

void PathEngine::set_now(TimePoint now) {
  assert(shared_ready_);
  now_ = now;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId w = 0; w < n_; ++w) {
      if (u == w) continue;
      const std::size_t i = static_cast<std::size_t>(u) * n_ + w;
      const bool exp = entry_expired(table_.get(u, w), cfg_, now_);
      if (exp != expired_[i]) {
        expired_[i] = exp;
        edges.emplace_back(u, w);
      }
    }
  }
  if (edges.empty()) return;
  const std::vector<NodeId> no_flips;  // liveness ignores staleness
  EngineKernel<LossObj> kl{table_,  cfg_,      n_,   src_,          kInvalidNode,   live_,
                           nullptr, &expired_, now_, s_loss_.value, s_loss_.parent, stats_};
  incremental_pass(kl, rounds_, edges, no_flips, changed_prev_, changed_prev2_, changed_cur_,
                   rescan_);
  EngineKernel<LatObj> kt{table_,  cfg_,      n_,   src_,         kInvalidNode,  live_,
                          nullptr, &expired_, now_, s_lat_.value, s_lat_.parent, stats_};
  incremental_pass(kt, rounds_, edges, no_flips, changed_prev_, changed_prev2_, changed_cur_,
                   rescan_);
}

EngineChoice PathEngine::table_best_loss(NodeId dst) const {
  assert(shared_ready_ && dst < n_ && dst != src_);
  auto& self = *const_cast<PathEngine*>(this);
  EngineKernel<LossObj> kern{table_,  cfg_,      n_,   src_,               kInvalidNode,
                             live_,   nullptr,   &expired_,
                             now_,    self.s_loss_.value, self.s_loss_.parent, self.stats_};
  const double direct =
      link_loss(table_.get(src_, dst), cfg_, expired_[static_cast<std::size_t>(src_) * n_ + dst]);
  return finish<LossObj>(kern, dst, rounds_, direct, true);
}

EngineChoice PathEngine::table_best_latency(NodeId dst) const {
  assert(shared_ready_ && dst < n_ && dst != src_);
  auto& self = *const_cast<PathEngine*>(this);
  EngineKernel<LatObj> kern{table_,  cfg_,      n_,   src_,              kInvalidNode,
                            live_,   nullptr,   &expired_,
                            now_,    self.s_lat_.value, self.s_lat_.parent, self.stats_};
  const Duration direct = link_latency(
      table_.get(src_, dst), cfg_, expired_[static_cast<std::size_t>(src_) * n_ + dst]);
  return finish<LatObj>(kern, dst, rounds_, direct, true);
}

double PathEngine::loss_label(int round, NodeId node) const {
  return s_loss_.value[static_cast<std::size_t>(round) * n_ + node];
}
Duration PathEngine::lat_label(int round, NodeId node) const {
  return s_lat_.value[static_cast<std::size_t>(round) * n_ + node];
}
NodeId PathEngine::loss_parent(int round, NodeId node) const {
  return s_loss_.parent[static_cast<std::size_t>(round) * n_ + node];
}
NodeId PathEngine::lat_parent(int round, NodeId node) const {
  return s_lat_.parent[static_cast<std::size_t>(round) * n_ + node];
}

}  // namespace ronpath
