// Shared link-state view of the overlay mesh.
//
// Every node publishes its outgoing link estimates (loss, latency, down)
// here; the router composes one-hop paths from two published entries. In
// the deployed RON system this state is flooded between nodes at the
// probing frequency; we model dissemination as publication into a shared
// table. Entries carry their publication time so consumers can apply a
// staleness bound, and the router's O(N^2) probing overhead is accounted
// analytically in the model library (see model/overhead.h).
//
// Storage is one CSR layout over the table's NeighborSet: one entry per
// directed overlay edge, in edge-rank order, so a capped graph holds
// O(n * fanout) entries and the full mesh (the paper's overlay, and
// what LinkStateTable(n) builds) holds n * (n - 1). Reads of pairs
// outside the graph, including (v, v), return a pristine
// (never-published) entry; writes to them are a programming error.
//
// node_seems_up is O(1) via per-node incident counters maintained on
// publish — the path engine calls it for every node on every query,
// which at 3000 nodes would otherwise be an O(n) scan inside an O(n)
// loop.

#ifndef RONPATH_OVERLAY_LINK_STATE_H_
#define RONPATH_OVERLAY_LINK_STATE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "overlay/neighbors.h"
#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

struct LinkMetrics {
  double loss = 0.0;
  Duration latency = Duration::max();
  bool down = false;
  bool has_latency = false;
  std::size_t samples = 0;
  TimePoint published;
  // Announcement-rotation stride of the publisher: this entry is
  // refreshed every `stride` probe intervals (1 = every round, the
  // full mesh's cadence). Consumers scale staleness bounds by it so capped
  // announcements don't read as failures (see router.h entry_expired).
  std::uint32_t stride = 1;
};

class LinkStateTable {
 public:
  // The full mesh on n nodes: NeighborSet::full_mesh(n).
  explicit LinkStateTable(std::size_t n_nodes);
  // One entry per directed edge of `neighbors`.
  explicit LinkStateTable(NeighborSet neighbors);

  void publish(NodeId from, NodeId to, const LinkMetrics& metrics);
  [[nodiscard]] const LinkMetrics& get(NodeId from, NodeId to) const;
  // The entry of directed edge `edge` (a NeighborSet rank), read without
  // searching the row.
  [[nodiscard]] const LinkMetrics& at_edge(std::size_t edge) const {
    assert(edge < entries_.size());
    return entries_[edge];
  }
  // What get() returns for a pair outside the neighbor graph.
  [[nodiscard]] static const LinkMetrics& pristine();

  // A node is considered reachable-in-principle if at least one of its
  // incident links is not down (no estimates at all also counts as up).
  [[nodiscard]] bool node_seems_up(NodeId node) const {
    return up_cnt_[node] > 0 || est_cnt_[node] == 0;
  }

  [[nodiscard]] std::size_t size() const { return nbrs_.size(); }
  // The graph the table is keyed by.
  [[nodiscard]] const NeighborSet& neighbors() const { return nbrs_; }

  // Snapshot support: serializes every published entry.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: TTL/staleness consistency (nothing published in
  // the future, never-published entries pristine), latency-sentinel
  // sanity per entry, and counter/scan agreement for node_seems_up.
  void check_invariants(TimePoint now, std::vector<std::string>& out) const;

  // Visits the entry of every directed edge in storage order: source
  // ascending, then the source's row.
  void for_each_entry(
      const std::function<void(NodeId, NodeId, const LinkMetrics&)>& fn) const;

 private:
  void recount();

  NeighborSet nbrs_;
  std::vector<LinkMetrics> entries_;  // one per directed edge, edge-rank order
  // Per-node incident-entry counters backing O(1) node_seems_up:
  // est = incident entries with samples > 0; up = those also not down.
  std::vector<std::uint32_t> est_cnt_;
  std::vector<std::uint32_t> up_cnt_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_LINK_STATE_H_
