// Compiles a FaultSchedule against a concrete topology into O(log n)
// time-indexed queries, and implements the net-layer FaultHook.
//
// Compilation expands every spec - including periodic ones, up to the
// horizon - into per-component and per-node sorted, merged activation
// windows. Component windows are sparse: only the handful of faulted
// component ids are stored, in a sorted list beside their windows, so
// the injector costs nothing per id of the n^2 component space and a
// hop's query is one search over that list. Queries are pure binary
// searches over immutable data, so the injector is safe to share by
// const reference and its answers are a deterministic function of
// (schedule, topology, horizon) alone.
//
// Integration points:
//   Network::set_fault_hook        - component blackouts + probe blackhole
//                                    (DropCause::kInjected)
//   OverlayNetwork::set_fault_injector - LSA suppression, crash-restart
//                                    (and forwards the hook to the network)

#ifndef RONPATH_FAULT_INJECTOR_H_
#define RONPATH_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "net/network.h"
#include "net/topology.h"

namespace ronpath {

class FaultInjector final : public FaultHook {
 public:
  // Throws std::runtime_error when a spec references a site/node id
  // outside the topology or a link from a site to itself. `horizon`
  // bounds periodic expansion (use the run span plus slack, as with
  // Network's own pregeneration).
  FaultInjector(const FaultSchedule& schedule, const Topology& topology, Duration horizon);

  // FaultHook (consulted by Network::transmit).
  [[nodiscard]] bool component_down(std::size_t component, TimePoint t) const override;
  [[nodiscard]] bool probe_blackhole(NodeId node, TimePoint t) const override;

  // Control-plane queries (consulted by OverlayNetwork).
  [[nodiscard]] bool lsa_suppressed(NodeId node, TimePoint t) const;
  [[nodiscard]] bool node_crashed(NodeId node, TimePoint t) const;

  // Introspection for tests and reports.
  [[nodiscard]] std::size_t faulted_component_count() const;
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  // Overlapping/duplicate activation windows that were silently coalesced
  // during compilation. Nonzero usually means a schedule specifies the
  // same component twice for overlapping spans — legal, but worth
  // surfacing in reports since the duplicate has no effect.
  [[nodiscard]] std::int64_t merged_window_count() const { return merged_window_count_; }

 private:
  struct Window {
    TimePoint start;
    TimePoint end;
  };
  using Windows = std::vector<Window>;

  static void add_window(Windows& w, TimePoint start, Duration dur);
  // Sorts and coalesces each window list; returns how many windows were
  // folded into a predecessor.
  static std::int64_t finalize(std::vector<Windows>& table);
  [[nodiscard]] static bool covered(const Windows& w, TimePoint t);

  FaultSchedule schedule_;
  std::int64_t merged_window_count_ = 0;
  std::vector<std::size_t> component_ids_;   // faulted components, ascending
  std::vector<Windows> component_windows_;   // [rank in component_ids_]
  std::vector<Windows> blackhole_windows_;  // [node]
  std::vector<Windows> lsa_windows_;        // [node]
  std::vector<Windows> crash_windows_;      // [node]
};

}  // namespace ronpath

#endif  // RONPATH_FAULT_INJECTOR_H_
