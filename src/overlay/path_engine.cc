#include "overlay/path_engine.h"

#include <algorithm>
#include <cassert>

namespace ronpath {

namespace {

// Objective policies. Values are chosen so the two legs compose
// exactly as the legacy estimate expressions do:
//   loss     : survival product (1-l1)*(1-l2); the query converts to
//              loss as 1.0 - product.
//   latency  : saturating_add, Duration::max() absorbing.
// Each objective also names its selection: `penalized` is the value the
// best relay competes with against the direct path (which reports the
// raw link metric), stored in `selected` of the choice.
struct LossObj {
  using Value = double;
  static Value link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_loss(m, cfg, now);
  }
  static Value relay(Value in, Value out) { return (1.0 - in) * (1.0 - out); }
  static bool better(Value a, Value b) { return a > b; }
  // Losses lie in [0, 1], so survival never exceeds 1.0.
  static bool unbeatable(Value v) { return v == 1.0; }
  static double penalized(Value v, const RouterConfig& cfg) {
    return (1.0 - v) + cfg.indirect_loss_penalty;
  }
  static double& selected(EngineChoice& c) { return c.loss; }
};

struct LatObj {
  using Value = Duration;
  static Value link(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now) {
    return link_latency(m, cfg, now);
  }
  static Value relay(Value in, Value out) { return Duration::saturating_add(in, out); }
  static bool better(Value a, Value b) { return a < b; }
  static bool unbeatable(Value) { return false; }
  static Duration penalized(Value v, const RouterConfig& cfg) {
    Duration cand = Duration::saturating_add(v, cfg.forward_delay);
    if (cand != Duration::max()) cand += cfg.indirect_lat_penalty;
    return cand;
  }
  static Duration& selected(EngineChoice& c) { return c.latency; }
};

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

// One-relay query: a single ascending scan keeping the first strictly
// better relay (ties resolve to the smallest), then the penalized pick
// against the direct path.
template <class Obj>
EngineChoice one_relay(const LinkStateTable& t, const RouterConfig& cfg, NodeId src, NodeId dst,
                       TimePoint now, const RelayFilter& f) {
  assert(src < t.size() && dst < t.size() && src != dst);
  assert(std::is_sorted(f.excluded.begin(), f.excluded.end()));
  const auto link = [&](const LinkMetrics& m) { return Obj::link(m, cfg, now); };
  EngineChoice best;
  best.valid = f.include_direct;
  if (f.include_direct) Obj::selected(best) = link(t.get(src, dst));
  typename Obj::Value top{};
  NodeId via = kInvalidNode;
  auto barred = f.excluded.begin();
  for_each_relay(t, src, dst, f.endpoint_rows,
                 [&](NodeId u, const LinkMetrics& in, const LinkMetrics& out) {
                   while (barred != f.excluded.end() && *barred < u) ++barred;
                   if (!t.node_seems_up(u) || (barred != f.excluded.end() && *barred == u)) {
                     return true;
                   }
                   const auto cand = Obj::relay(link(in), link(out));
                   if (via == kInvalidNode || Obj::better(cand, top)) {
                     top = cand;
                     via = u;
                   }
                   return !Obj::unbeatable(top);
                 });
  if (via != kInvalidNode) {
    const auto cand = Obj::penalized(top, cfg);
    if (!best.valid || cand < Obj::selected(best)) {
      best.valid = true;
      best.via = via;
      Obj::selected(best) = cand;
    }
  }
  return best;
}

}  // namespace

PathEngine::PathEngine(const LinkStateTable& table, const RouterConfig& cfg)
    : table_(table), cfg_(cfg) {}

EngineChoice PathEngine::best_loss(NodeId src, NodeId dst, TimePoint now,
                                   const RelayFilter& filter) const {
  return one_relay<LossObj>(table_, cfg_, src, dst, now, filter);
}

EngineChoice PathEngine::best_latency(NodeId src, NodeId dst, TimePoint now,
                                      const RelayFilter& filter) const {
  return one_relay<LatObj>(table_, cfg_, src, dst, now, filter);
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
