// Overlay path engine: the reactive router's one-relay scan, and a
// round-based (RAPTOR style) k-hop loss search for the depth ablations.
//
// Query styles:
//
//   * one relay: best_loss()/best_latency() with a RelayFilter answer
//     with a single ascending scan over the relay candidates, no labels.
//     With RelayFilter::endpoint_rows the candidates are the sorted merge
//     of the two endpoints' CSR rows, N(src) u N(dst) (every node over
//     the full mesh), and both legs of each candidate are read by edge
//     rank (the (u, dst) leg through the reverse edge), so a query costs
//     O(|N(src)| + |N(dst)|), not O(n) searched reads. Seed, extend and
//     strict-improvement expressions are the round kernel's, so choices
//     match round 1 of the tables bit for bit. The loss scan stops at
//     the first relay with survival exactly 1.0: losses lie in [0, 1],
//     so no later relay can strictly beat it. The router (one relay, the
//     paper's reactive router) and the hybrid alternate ask this query.
//   * rounds: best_loss(src, dst, max_hops, now) searches up to max_hops
//     relays with every node a candidate (k = 1 is the unfiltered scan).
//     Round r holds, for every node w, the best path from the query
//     source to w that uses *exactly* r intermediate relays, by composed
//     loss survival. Labels live in flat struct-of-arrays tables
//     (value[r*n + w], parent[r*n + w]); round r relaxes only from nodes
//     whose label improved between rounds r-2 and r-1 (marked-node /
//     stagnation pruning), so steady-state rounds touch the frontier,
//     not all pairs. Only the depth ablations ask it.
//
// Exact per-round tables (rather than RAPTOR's best-at-most-r merge) are
// required here because the final selection is penalized per hop
// (indirect_loss_penalty is charged per relay), and a penalized order
// is not preserved under label composition.
//
// Selection order (the spec the differential tests pin): candidates are
// compared by penalized value with strict improvement, rounds ascending
// (direct first), so equal-valued candidates resolve to fewer hops;
// within a round the relax scans predecessors in ascending node order
// with strict improvement on the raw objective (survival, or latency in
// the one-relay scan), so ties resolve to the smallest last relay, then
// recursively to the best (then smallest) prefix. Paths through down,
// expired, excluded or seems-down nodes follow the same
// link_loss/link_latency semantics as the legacy router. The queried destination is barred from relay
// positions (as the legacy scans do). Labels may still transiently
// record non-simple chains (node revisits); a dominance argument (see
// DESIGN.md "Path engine") shows such chains never win a query, and the
// differential tests verify it.

#ifndef RONPATH_OVERLAY_PATH_ENGINE_H_
#define RONPATH_OVERLAY_PATH_ENGINE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "overlay/link_state.h"
#include "overlay/router.h"
#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

// A path described by its ordered relay list (empty == direct).
// Decoupled from PathSpec so the round search can reason about k > 2
// even though the forwarding plane carries at most two relays.
struct HopPath {
  static constexpr int kMaxHops = 4;
  std::array<NodeId, kMaxHops> hops{kInvalidNode, kInvalidNode, kInvalidNode, kInvalidNode};
  int count = 0;

  [[nodiscard]] constexpr bool is_direct() const { return count == 0; }
  // Conversion for the forwarding plane; requires count <= 2.
  [[nodiscard]] PathSpec to_spec(NodeId src, NodeId dst) const;
  friend constexpr bool operator==(const HopPath&, const HopPath&) = default;
};

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

// Result of an engine query. `valid` is false only when include_direct
// was false and no admissible relay exists (the hybrid alternate-path
// "no candidate" case).
struct EngineChoice {
  HopPath path;
  double loss = 0.0;
  Duration latency = Duration::zero();
  int hop_count = 0;
  bool valid = true;
};

// Work counters for the scaling story: per-round relax cost should track
// the marked frontier.
struct EngineStats {
  std::uint64_t edges_relaxed = 0;    // candidate extensions evaluated
  std::uint64_t sources_skipped = 0;  // stagnant/pruned relax sources
};

class PathEngine {
 public:
  static constexpr int kMaxRounds = HopPath::kMaxHops;

  // The engine reads `table` and `cfg` by reference; both must outlive
  // it. One engine serves any source (queries take `src`).
  PathEngine(const LinkStateTable& table, const RouterConfig& cfg);

  // Best path src -> dst through at most one relay under the staleness
  // policy at `now`, the relay restricted by `filter`.
  [[nodiscard]] EngineChoice best_loss(NodeId src, NodeId dst, TimePoint now,
                                       const RelayFilter& filter);
  [[nodiscard]] EngineChoice best_latency(NodeId src, NodeId dst, TimePoint now,
                                          const RelayFilter& filter);
  // Best loss path src -> dst through at most `max_hops` relays, every
  // node but the endpoints a candidate. Throws std::invalid_argument
  // unless 1 <= max_hops <= kMaxRounds.
  [[nodiscard]] EngineChoice best_loss(NodeId src, NodeId dst, int max_hops, TimePoint now);

  // The one-relay candidates of src -> dst that currently seem up,
  // ascending: N(src) u N(dst) without the endpoints.
  [[nodiscard]] std::vector<NodeId> live_relays(NodeId src, NodeId dst) const;

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

 private:
  void ensure_scratch();

  const LinkStateTable& table_;
  const RouterConfig& cfg_;
  std::size_t n_;

  // Round scratch (k >= 2; allocated on first use): value/parent
  // indexed [r * n + w], and each node's seems-up flag.
  std::vector<double> q_val_;   // survival product along the chain
  std::vector<NodeId> q_par_;   // predecessor relay; kInvalidNode = unset
  std::vector<bool> q_live_;

  EngineStats stats_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_PATH_ENGINE_H_
