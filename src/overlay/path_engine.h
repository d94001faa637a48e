// Round-based k-hop overlay path engine (RAPTOR style).
//
// The paper's reactive router scans direct + one-intermediate candidates
// per destination pair; this engine generalizes that scan to paths with
// up to k intermediates using rounds: round r holds, for every node w,
// the best path from the query source to w that uses *exactly* r
// intermediate relays, under a pluggable objective (composed loss or
// composed latency). Labels live in flat struct-of-arrays tables
// (value[r*n + w], parent[r*n + w]); round r relaxes only from nodes
// whose label improved between rounds r-2 and r-1 (marked-node /
// stagnation pruning), so steady-state rounds touch the frontier, not
// all pairs.
//
// Exact per-round tables (rather than RAPTOR's best-at-most-r merge) are
// required here because the final selection is penalized per hop
// (indirect_loss_penalty / indirect_lat_penalty are charged per relay),
// and a penalized order is not preserved under label composition.
//
// Query styles:
//
//   * one relay (k == 1): best_loss()/best_latency() answer with a
//     single ascending scan over the relay candidates, no labels. Over
//     a capped table with RelayFilter::endpoint_rows the candidates are
//     the sorted merge of the two endpoints' CSR rows, N(src) u N(dst),
//     and both legs of each candidate are read by edge rank (the
//     (u, dst) leg through the reverse edge), so a query costs
//     O(|N(src)| + |N(dst)|), not O(n) searched reads. Seed, extend
//     and strict-improvement expressions are the kernel's, so choices
//     match the round tables bit for bit. The loss scan stops at the
//     first relay with survival exactly 1.0: losses lie in [0, 1], so
//     no later relay can strictly beat it.
//   * per-query rounds (k >= 2): relax scratch tables for one
//     (src, dst, now) question; the filter becomes a relay mask.
//   * shared incremental: relax_all() builds tables for every
//     destination at a fixed (src, now) anchor; apply_update() /
//     set_now() re-relax only labels affected by a changed link-state
//     entry or an expiry flip instead of recomputing the whole table.
//
// Selection order (the spec the differential tests pin): candidates are
// compared by penalized value with strict improvement, rounds ascending
// (direct first), so equal-valued candidates resolve to fewer hops;
// within a round the relax scans predecessors in ascending node order
// with strict improvement on the raw objective (survival / latency), so
// ties resolve to the smallest last relay, then recursively to the best
// (then smallest) prefix. Paths through down, expired, excluded or
// seems-down nodes follow the same link_loss/link_latency semantics as
// the legacy router. Per-query mode additionally bans the queried
// destination from relay positions (as the legacy scans do). Labels may
// still transiently record non-simple chains (node revisits; in shared
// mode also chains through a destination); a dominance argument (see
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
// Decoupled from PathSpec so the engine can reason about k > 2 even
// though the forwarding plane currently carries at most two relays.
struct HopPath {
  static constexpr int kMaxHops = 4;
  std::array<NodeId, kMaxHops> hops{kInvalidNode, kInvalidNode, kInvalidNode, kInvalidNode};
  int count = 0;

  [[nodiscard]] constexpr bool is_direct() const { return count == 0; }
  // Conversion for the forwarding plane; requires count <= 2.
  [[nodiscard]] PathSpec to_spec(NodeId src, NodeId dst) const;
  friend constexpr bool operator==(const HopPath&, const HopPath&) = default;
};

// Relay restrictions of a per-query search.
struct RelayFilter {
  // Relays only from N(src) u N(dst) of the table's capped neighbor
  // graph (every node over a dense, full-mesh table). Off: every node.
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
// the marked frontier, and incremental updates should touch only
// affected labels.
struct EngineStats {
  std::uint64_t edges_relaxed = 0;      // candidate extensions evaluated
  std::uint64_t labels_rescanned = 0;   // full label recomputes (incremental)
  std::uint64_t sources_skipped = 0;    // stagnant/pruned relax sources
  std::uint64_t labels_changed = 0;     // labels rewritten by incremental ops
};

class PathEngine {
 public:
  static constexpr int kMaxRounds = HopPath::kMaxHops;

  // The engine reads `table` and `cfg` by reference; both must outlive
  // it. One engine serves any source (queries take `src`).
  PathEngine(const LinkStateTable& table, const RouterConfig& cfg);

  // --- per-query mode ---------------------------------------------

  // Best path src -> dst using at most `max_hops` relays under the
  // staleness policy at `now`, relays restricted by `filter`.
  [[nodiscard]] EngineChoice best_loss(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                       const RelayFilter& filter = {});
  [[nodiscard]] EngineChoice best_latency(NodeId src, NodeId dst, int max_hops, TimePoint now,
                                          const RelayFilter& filter = {});

  // The one-relay candidates of src -> dst that currently seem up,
  // ascending (endpoint_rows as in RelayFilter).
  [[nodiscard]] std::vector<NodeId> live_relays(NodeId src, NodeId dst,
                                                bool endpoint_rows) const;

  // --- shared incremental mode ------------------------------------

  // Builds full label tables for `src` at anchor time `now`, rounds
  // 0..max_hops, both objectives. Subsequent queries and updates refer
  // to this anchor.
  void relax_all(NodeId src, int max_hops, TimePoint now);

  // Re-relaxes labels affected by a republished entry (call after
  // LinkStateTable::publish(from, to)). Liveness flips of the endpoint
  // nodes are detected and propagated.
  void apply_update(NodeId from, NodeId to);

  // Moves the staleness anchor; entries whose expiry status flips are
  // re-relaxed incrementally.
  void set_now(TimePoint now);

  // Query against the shared tables (no exclusions; direct included).
  [[nodiscard]] EngineChoice table_best_loss(NodeId dst) const;
  [[nodiscard]] EngineChoice table_best_latency(NodeId dst) const;

  // Label introspection for the property tests: value/parent of the
  // shared tables. Parent == kInvalidNode marks an unset label.
  [[nodiscard]] double loss_label(int round, NodeId node) const;
  [[nodiscard]] Duration lat_label(int round, NodeId node) const;
  [[nodiscard]] NodeId loss_parent(int round, NodeId node) const;
  [[nodiscard]] NodeId lat_parent(int round, NodeId node) const;

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

 private:
  struct Shared;  // defined in the .cc

  template <class Obj>
  friend struct EngineKernel;

  // Flat per-objective label storage: value/parent indexed [r * n + w].
  struct LossLabels {
    std::vector<double> value;   // survival product along the chain
    std::vector<NodeId> parent;  // predecessor relay; kInvalidNode = unset
  };
  struct LatLabels {
    std::vector<Duration> value;  // saturating latency sum along the chain
    std::vector<NodeId> parent;
  };

  // Per-query search at k >= 2 on the round tables in `labels`.
  template <class Obj, class Labels>
  EngineChoice query_rounds(NodeId src, NodeId dst, int rounds, TimePoint now,
                            const RelayFilter& filter, Labels& labels);
  // The filter as an n-entry relay mask for the round kernel; null when
  // it bars nothing.
  const std::vector<bool>* relay_mask(NodeId src, NodeId dst, const RelayFilter& filter);
  void ensure_scratch();
  void refresh_live();
  void refresh_expired();

  const LinkStateTable& table_;
  const RouterConfig& cfg_;
  std::size_t n_;

  // Scratch for per-query rounds (k >= 2; allocated on first use).
  LossLabels q_loss_;
  LatLabels q_lat_;
  std::vector<bool> q_live_;
  std::vector<bool> q_mask_;

  // Shared incremental state.
  bool shared_ready_ = false;
  NodeId src_ = kInvalidNode;
  int rounds_ = 0;
  TimePoint now_;
  LossLabels s_loss_;
  LatLabels s_lat_;
  std::vector<bool> live_;
  std::vector<bool> expired_;  // per directed entry, anchored at now_
  // Incremental worklists (reused).
  std::vector<bool> changed_prev_;
  std::vector<bool> changed_prev2_;
  std::vector<bool> changed_cur_;
  std::vector<bool> rescan_;

  EngineStats stats_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_PATH_ENGINE_H_
