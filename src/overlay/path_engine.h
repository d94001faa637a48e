// Overlay path engine: the reactive router's one-relay scan.
//
// best_loss()/best_latency() with a RelayFilter answer with a single
// ascending scan over the relay candidates, no labels. With
// RelayFilter::endpoint_rows the candidates are the sorted merge of the
// two endpoints' CSR rows, N(src) u N(dst) (every node over the full
// mesh), and both legs of each candidate are read by edge rank (the
// (u, dst) leg through the reverse edge), so a query costs
// O(|N(src)| + |N(dst)|), not O(n) searched reads. The loss scan stops
// at the first relay with survival exactly 1.0: losses lie in [0, 1],
// so no later relay can strictly beat it. The router (one relay, the
// paper's reactive router) and the hybrid alternate ask this query.
//
// Selection order (the spec the differential tests pin): relays are
// scanned in ascending node order with strict improvement on the raw
// objective (survival, or latency), so ties resolve to the smallest
// relay; the best relay then replaces the direct path only if its
// penalized value is strictly smaller, so equal values resolve to the
// direct path. Paths through down, expired, excluded or seems-down
// nodes follow the same link_loss/link_latency semantics as the
// legacy router. The queried endpoints are never relays.

#ifndef RONPATH_OVERLAY_PATH_ENGINE_H_
#define RONPATH_OVERLAY_PATH_ENGINE_H_

#include <span>
#include <vector>

#include "overlay/link_state.h"
#include "overlay/router.h"
#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

// Relay restrictions of a one-relay query.
struct RelayFilter {
  // Relays only from N(src) u N(dst) of the table's neighbor graph
  // (every node over the full mesh). Off: every node.
  bool endpoint_rows = false;
  // Nodes barred from every relay position (hold-downs, a primary's
  // relay), ascending.
  std::span<const NodeId> excluded;
  // Off: the 0-hop candidate is not considered.
  bool include_direct = true;
};

// Result of an engine query: the relay, or kDirectVia for the direct
// path. `valid` is false only when include_direct was false and no
// admissible relay exists (the hybrid alternate-path "no candidate"
// case).
struct EngineChoice {
  NodeId via = kDirectVia;
  double loss = 0.0;
  Duration latency = Duration::zero();
  bool valid = true;
};

class PathEngine {
 public:
  // The engine reads `table` and `cfg` by reference; both must outlive
  // it. One engine serves any source (queries take `src`).
  PathEngine(const LinkStateTable& table, const RouterConfig& cfg);

  // Best path src -> dst through at most one relay under the staleness
  // policy at `now`, the relay restricted by `filter`.
  [[nodiscard]] EngineChoice best_loss(NodeId src, NodeId dst, TimePoint now,
                                       const RelayFilter& filter) const;
  [[nodiscard]] EngineChoice best_latency(NodeId src, NodeId dst, TimePoint now,
                                          const RelayFilter& filter) const;

  // The one-relay candidates of src -> dst that currently seem up,
  // ascending: N(src) u N(dst) without the endpoints.
  [[nodiscard]] std::vector<NodeId> live_relays(NodeId src, NodeId dst) const;

 private:
  const LinkStateTable& table_;
  const RouterConfig& cfg_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_PATH_ENGINE_H_
