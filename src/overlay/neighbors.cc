#include "overlay/neighbors.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ronpath {

NeighborSet NeighborSet::full_mesh(std::size_t n) {
  assert(n >= 1);
  NeighborSet ns;
  std::vector<std::vector<NodeId>> rows(n);
  for (std::size_t s = 0; s < n; ++s) {
    rows[s].reserve(n - 1);
    for (std::size_t d = 0; d < n; ++d) {
      if (d != s) rows[s].push_back(static_cast<NodeId>(d));
    }
  }
  ns.finish(n, std::move(rows));
  ns.full_ = true;
  return ns;
}

NeighborSet NeighborSet::build(const Topology& topo, std::size_t fanout,
                               std::size_t landmarks) {
  const std::size_t n = topo.size();
  if (fanout == 0 || fanout + 1 >= n) return full_mesh(n);

  NeighborSet ns;
  std::vector<std::vector<NodeId>> rows(n);

  // k-nearest by (propagation, id). Propagation is the only distance
  // known before probing starts, and it is a pure function of the
  // topology, so the graph is identical across runs.
  std::vector<std::pair<std::int64_t, NodeId>> dist;
  dist.reserve(n - 1);
  for (std::size_t s = 0; s < n; ++s) {
    dist.clear();
    for (std::size_t d = 0; d < n; ++d) {
      if (d == s) continue;
      dist.emplace_back(topo.propagation(static_cast<NodeId>(s), static_cast<NodeId>(d))
                            .count_nanos(),
                        static_cast<NodeId>(d));
    }
    const std::size_t k = std::min(fanout, dist.size());
    std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k), dist.end());
    for (std::size_t i = 0; i < k; ++i) rows[s].push_back(dist[i].second);
  }

  // Landmarks by greedy farthest-point traversal from node 0: each pick
  // maximizes the minimum propagation to the already-chosen set (ties
  // broken towards the smaller id), spreading them across the geography.
  const std::size_t n_landmarks = std::min(landmarks, n);
  std::vector<NodeId> chosen;
  if (n_landmarks > 0) {
    chosen.push_back(0);
    std::vector<std::int64_t> min_dist(n);
    for (std::size_t v = 0; v < n; ++v) {
      min_dist[v] = topo.propagation(0, static_cast<NodeId>(v)).count_nanos();
    }
    while (chosen.size() < n_landmarks) {
      NodeId best = kInvalidNode;
      std::int64_t best_dist = -1;
      for (std::size_t v = 0; v < n; ++v) {
        if (min_dist[v] > best_dist &&
            std::find(chosen.begin(), chosen.end(), static_cast<NodeId>(v)) == chosen.end()) {
          best = static_cast<NodeId>(v);
          best_dist = min_dist[v];
        }
      }
      chosen.push_back(best);
      for (std::size_t v = 0; v < n; ++v) {
        min_dist[v] = std::min(
            min_dist[v], topo.propagation(best, static_cast<NodeId>(v)).count_nanos());
      }
    }
    std::sort(chosen.begin(), chosen.end());
    // Every node keeps an edge to every landmark, so src -> landmark ->
    // dst is always inside the probed graph.
    for (const NodeId l : chosen) {
      for (std::size_t v = 0; v < n; ++v) {
        if (v != l) rows[v].push_back(l);
      }
    }
  }

  ns.finish(n, std::move(rows));
  ns.landmarks_ = std::move(chosen);
  for (const NodeId l : ns.landmarks_) ns.is_landmark_[l] = true;
  return ns;
}

void NeighborSet::finish(std::size_t n, std::vector<std::vector<NodeId>> rows) {
  // Symmetrize, sort, dedup, then flatten to CSR.
  for (std::size_t s = 0; s < n; ++s) {
    for (const NodeId d : rows[s]) {
      rows[d].push_back(static_cast<NodeId>(s));
    }
  }
  offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    auto& row = rows[s];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    offsets_[s] = total;
    total += row.size();
  }
  offsets_[n] = total;
  nbrs_.reserve(total);
  for (std::size_t s = 0; s < n; ++s) {
    nbrs_.insert(nbrs_.end(), rows[s].begin(), rows[s].end());
  }
  // Sources are visited in ascending order and every row is sorted, so s
  // takes the next unclaimed slot of each of its neighbors' rows.
  reverse_.resize(total);
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t e = offsets_[s]; e < offsets_[s + 1]; ++e) {
      const std::size_t r = next[nbrs_[e]]++;
      assert(nbrs_[r] == s);
      reverse_[e] = r;
    }
  }
  is_landmark_.assign(n, false);
}

}  // namespace ronpath
