// One-hop overlay path selection (the paper's reactive routing).
//
// For a source-destination pair the candidate set is the direct Internet
// path plus every one-intermediate path through a node that currently
// seems up; the router never selects a second relay (RON stops at one,
// and bench_ablation_two_hop measures what a second would add with its
// own search). Two objectives are provided, matching Table 4:
//
//   loss - minimize composed loss probability over the last-100-probe
//          window estimates;
//   lat  - minimize composed latency while avoiding links flagged down
//          ("minimizes latency and avoids completely failed links").
//
// Selection applies hysteresis so estimate noise does not flap routes:
// the incumbent path is kept unless the challenger improves on it by an
// absolute and a relative margin.
//
// Graceful degradation (all knobs off by default; see DESIGN.md "Fault
// model"): when entry_ttl is set, link-state entries older than the TTL
// expire to "unknown" (pessimistic loss, unusable latency) instead of
// being trusted forever; when the fraction of the source's own outgoing
// entries that have expired crosses degraded_view_threshold the router
// falls back to the direct path rather than routing on garbage; and when
// holddown_base is set, a selected path whose link goes down enters an
// exponentially growing hold-down before it can be re-selected, bounding
// flap amplification.
//
// Scaling (DESIGN.md §14): the router's relay candidates are
// N(self) u N(dst) of the table's NeighborSet, which over a capped graph
// holds every landmark because every node neighbors every landmark, and
// over the full mesh is every node. A query is one path-engine scan over
// the sorted merge of the two rows, O(|N(self)| + |N(dst)|); the
// degraded-view denominator is the own neighbor row; and per-destination
// state (incumbents, switch counters, hold-downs) lives in sorted flat
// maps populated on first touch — O(destinations actually routed), not
// O(n) per router.

#ifndef RONPATH_OVERLAY_ROUTER_H_
#define RONPATH_OVERLAY_ROUTER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "overlay/link_state.h"
#include "util/ids.h"
#include "util/time.h"

namespace ronpath {

class PathEngine;

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

struct RouterConfig {
  // Loss hysteresis: switch only if challenger_loss <
  // incumbent_loss - abs_margin  (or incumbent went down).
  double loss_abs_margin = 0.01;
  // Direct-path preference: an indirect path must beat the direct path's
  // loss estimate by this margin to be selected at all. Suppresses
  // noise-driven detours onto structurally lossier two-hop paths.
  double indirect_loss_penalty = 0.03;
  // Same idea for the latency objective.
  Duration indirect_lat_penalty = Duration::millis(1);
  // Latency hysteresis: switch only if challenger latency is better by
  // both margins.
  Duration lat_abs_margin = Duration::millis(2);
  double lat_rel_margin = 0.05;
  // Penalty latency assigned to down links in latency composition.
  Duration down_penalty = Duration::seconds(10);
  // Extra per-hop forwarding latency assumed for indirect paths.
  Duration forward_delay = Duration::micros(300);

  // --- graceful degradation (off by default; historical behavior) ---
  // Entries older than this (or never published) count as unknown
  // rather than being trusted forever. Zero disables expiry. Callers
  // normally set this to a few probe intervals so entries only expire
  // when publication actually stops (LSA loss, crash, blackhole).
  // Entries published under announcement rotation carry a stride > 1
  // and their effective TTL scales by it (capped refresh cadence is not
  // staleness).
  Duration entry_ttl = Duration::zero();
  // Loss assumed for expired/unknown entries: pessimistic enough that
  // unknown paths never beat a measured one, short of "down".
  double unknown_loss = 0.35;
  // When more than this fraction of the source's own outgoing entries
  // are expired, route() falls back to the direct path outright.
  double degraded_view_threshold = 0.5;
  // Exponential hold-down for flapping paths: first down event bans the
  // via for holddown_base, doubling per repeat up to holddown_max.
  // Strikes decay after holddown_reset without a down event. Zero
  // disables hold-down.
  Duration holddown_base = Duration::zero();
  Duration holddown_max = Duration::minutes(5);
  Duration holddown_reset = Duration::minutes(10);
};

struct PathChoice {
  PathSpec path;
  double loss = 0.0;
  Duration latency = Duration::zero();
};

// Stateless evaluation helpers -------------------------------------------

// True when an entry should be treated as unknown under the config's
// staleness policy at time `now` (always false with entry_ttl == 0).
[[nodiscard]] bool entry_expired(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now);

// Effective per-link selection metrics under the staleness policy:
// expired entries degrade to unknown (pessimistic loss, unusable
// latency), down links lose everything / cost down_penalty. These are
// the single source of truth for both the legacy path estimates and the
// path engine's relaxation, so the two compose identically.
[[nodiscard]] double link_loss(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now);
[[nodiscard]] Duration link_latency(const LinkMetrics& m, const RouterConfig& cfg, TimePoint now);

// Composed one-way loss estimate of a path under the table's current view
// and the staleness policy at `now`. Handles direct and one-relay paths;
// with entry_ttl == 0 entries are trusted forever.
[[nodiscard]] double path_loss_estimate(const LinkStateTable& table, const PathSpec& path,
                                        const RouterConfig& cfg, TimePoint now);
// Composed one-way latency estimate; Duration::max() when unknown.
[[nodiscard]] Duration path_latency_estimate(const LinkStateTable& table, const PathSpec& path,
                                             const RouterConfig& cfg, TimePoint now);
// True if any link of the path is flagged down.
[[nodiscard]] bool path_down(const LinkStateTable& table, const PathSpec& path);

// Stateful per-source router with hysteresis ------------------------------

class Router {
 public:
  // Relay candidates are the endpoint rows of the table's NeighborSet,
  // and the degraded-view scan covers the own row.
  Router(NodeId self, const LinkStateTable& table, RouterConfig cfg);
  ~Router();  // out of line: PathEngine is incomplete here

  // Best path choices under each objective; re-evaluated on demand.
  // `now` drives the staleness and hold-down policies: entries age and
  // hold-downs end against it. Queried at TimePoint::epoch(), no
  // published entry ever ages and no hold-down ever ends.
  [[nodiscard]] PathChoice best_loss_path(NodeId dst, TimePoint now);
  [[nodiscard]] PathChoice best_lat_path(NodeId dst, TimePoint now);

  // True when the degradation policy says this node's view is too stale
  // to route indirectly (fraction of expired own entries exceeds
  // degraded_view_threshold). Always false with entry_ttl == 0.
  [[nodiscard]] bool view_degraded(TimePoint now) const;

  // Route-change counters per destination, split by objective. A switch
  // is any evaluation whose selected path differs from the incumbent;
  // flap-amplification tests bound these. Zero for never-routed
  // destinations.
  [[nodiscard]] std::int64_t loss_switches(NodeId dst) const;
  [[nodiscard]] std::int64_t lat_switches(NodeId dst) const;

  // True while `via` is serving an exponential hold-down for routes to
  // `dst` (always false with holddown_base == 0).
  [[nodiscard]] bool held_down(NodeId dst, NodeId via, TimePoint now) const;

  // Candidate intermediates that currently seem up, ascending: N(self) u
  // N(dst) without self and dst.
  [[nodiscard]] std::vector<NodeId> live_intermediates(NodeId dst) const;

  // Snapshot support: incumbents, switch counters and hold-down state.
  // The path engine holds no state and is not serialized.
  // restore_state rejects keys and incumbents that check_invariants
  // would flag as out of range or malformed (an incumbent whose relay is
  // one of its endpoints among them: the router never selects one).
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: hold-down strike monotonicity (strikes in [0,20],
  // bans bounded by holddown_max from the last down event), incumbent
  // well-formedness (direct, or one relay other than the endpoints), and
  // flat-map key ordering.
  void check_invariants(TimePoint now, std::vector<std::string>& out) const;

 private:
  // All mutable state for one destination, created on first touch.
  struct DstState {
    std::optional<PathSpec> loss_path;
    std::optional<PathSpec> lat_path;
    std::int64_t loss_switches = 0;
    std::int64_t lat_switches = 0;
  };
  struct Holddown {
    TimePoint until;      // banned before this instant
    TimePoint last_down;  // last down event (drives strike decay)
    int strikes = 0;
  };

  [[nodiscard]] PathChoice evaluate_loss(NodeId dst, DstState& st, TimePoint now);
  [[nodiscard]] PathChoice evaluate_lat(NodeId dst, DstState& st, TimePoint now);
  // Relays serving a hold-down for routes to `dst` at `now`, ascending:
  // read from dst's slice of the sorted hold-down map.
  [[nodiscard]] std::span<const NodeId> held_vias(NodeId dst, TimePoint now);
  // Registers a down event on the incumbent's via, escalating hold-down.
  void register_down(NodeId dst, const PathSpec& path, TimePoint now);
  static void count_switch(std::int64_t& counter, const std::optional<PathSpec>& inc,
                           const PathSpec& chosen);
  [[nodiscard]] std::size_t holddown_key(NodeId dst, NodeId via) const;
  [[nodiscard]] DstState& dst_state(NodeId dst);
  [[nodiscard]] const DstState* find_dst(NodeId dst) const;
  [[nodiscard]] const Holddown* find_holddown(std::size_t key) const;

  NodeId self_;
  const LinkStateTable& table_;
  RouterConfig cfg_;
  // Sorted flat maps: key order is the serialization order, so
  // snapshots are deterministic regardless of touch order.
  std::vector<std::pair<NodeId, DstState>> dst_states_;
  std::vector<std::pair<std::size_t, Holddown>> holddown_;  // key: dst * (n+1) + via-slot
  // Candidate evaluation kernel (owned and stateless, so const queries
  // may use it). unique_ptr keeps router.h free of the engine header.
  std::unique_ptr<PathEngine> engine_;
  std::vector<NodeId> held_scratch_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_ROUTER_H_
