// Candidate-neighbor structure: the overlay's probed/announced graph.
//
// Full-mesh probing and link-state are O(n^2): fine for the paper's
// 30-node testbed, dead at 1000. NeighborSet caps the overlay graph:
// each node keeps its `fanout` nearest peers (by propagation delay, the
// only metric known before probing starts) plus an edge to every
// landmark. Landmarks are chosen by greedy farthest-point traversal so
// they spread across the geography; every node can reach any distant
// destination through src -> landmark -> dst with candidates drawn from
// N(src) u N(dst), which holds every landmark (arXiv:1310.8125's
// k-nearest + landmark alternate selection).
//
// The set is symmetric (a in N(b) <=> b in N(a)) and purely a function
// of (topology, fanout, landmarks): no RNG involved, so rebuilding it
// after a restore reproduces the same graph. Rows are sorted CSR, and
// `edge_index` gives every directed edge a dense rank — the flat
// storage key used by the overlay's estimator array and the link-state
// table (state is O(n * fanout) over a capped graph). Edge ranks of a
// row are contiguous from `row_begin`, and `reverse_edge` maps (s, d)
// to (d, s) in O(1), so a walk over row s reads both directions of
// every incident link without searching.
//
// `full_mesh(n)` (also what `build` returns at fanout 0, the uncapped
// overlay, and at fanout >= n-1) materializes the complete graph with
// `full() == true`. The flag only selects O(1) answers for `adjacent`
// and `edge_index` (row s of a full mesh is every node but s, so d's
// rank is d - (d > s)); every reader outside this class sees the same
// CSR rows for a full mesh as for a capped graph.

#ifndef RONPATH_OVERLAY_NEIGHBORS_H_
#define RONPATH_OVERLAY_NEIGHBORS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"
#include "util/ids.h"

namespace ronpath {

class NeighborSet {
 public:
  // The complete graph on n nodes (the uncapped overlay's shape).
  [[nodiscard]] static NeighborSet full_mesh(std::size_t n);

  // k-nearest (k = fanout) by (propagation delay, id), symmetrized,
  // plus all-nodes <-> landmark edges. fanout == 0 or >= n-1 yields the
  // full mesh (with no landmarks: every node already sees every other).
  [[nodiscard]] static NeighborSet build(const Topology& topo, std::size_t fanout,
                                         std::size_t landmarks);

  [[nodiscard]] std::size_t size() const { return offsets_.size() - 1; }
  [[nodiscard]] bool full() const { return full_; }

  [[nodiscard]] std::size_t degree(NodeId s) const { return offsets_[s + 1] - offsets_[s]; }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId s) const {
    return {nbrs_.data() + offsets_[s], degree(s)};
  }
  [[nodiscard]] bool adjacent(NodeId a, NodeId b) const {
    if (a == b) return false;
    if (full_) return true;
    const auto row = neighbors(a);
    return std::binary_search(row.begin(), row.end(), b);
  }

  // Dense rank of directed edge (s, d): CSR row offset plus the rank of
  // d within row s. Asserts that the edge exists.
  [[nodiscard]] std::size_t edge_index(NodeId s, NodeId d) const {
    assert(adjacent(s, d));
    if (full_) return offsets_[s] + d - (d > s ? 1 : 0);
    const auto row = neighbors(s);
    return offsets_[s] +
           static_cast<std::size_t>(std::lower_bound(row.begin(), row.end(), d) - row.begin());
  }
  // Total directed edges (== nbrs_.size(); rows are symmetric).
  [[nodiscard]] std::size_t edge_count() const { return nbrs_.size(); }
  // Rank of (s, neighbors(s)[0]); row s holds ranks
  // [row_begin(s), row_begin(s) + degree(s)) in neighbor order.
  [[nodiscard]] std::size_t row_begin(NodeId s) const { return offsets_[s]; }
  // Rank of (d, s) given the rank of (s, d).
  [[nodiscard]] std::size_t reverse_edge(std::size_t e) const { return reverse_[e]; }

  [[nodiscard]] bool is_landmark(NodeId v) const { return is_landmark_[v]; }
  [[nodiscard]] const std::vector<NodeId>& landmarks() const { return landmarks_; }

 private:
  NeighborSet() = default;
  void finish(std::size_t n, std::vector<std::vector<NodeId>> rows);

  std::vector<std::size_t> offsets_;  // n + 1
  std::vector<NodeId> nbrs_;          // sorted per row, symmetric
  std::vector<std::size_t> reverse_;  // per edge: rank of the opposite direction
  std::vector<NodeId> landmarks_;     // sorted
  std::vector<bool> is_landmark_;
  bool full_ = false;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_NEIGHBORS_H_
