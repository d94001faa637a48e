// The overlay network: N nodes running RON-style probing on top of the
// simulated underlay, plus route selection and packet forwarding.
//
// Probing (Section 3.1): every node probes every other node once per
// probe_interval (default 15 s). A probe is a request/response exchange on
// the direct path; when one is lost, up to four follow-up probes spaced
// one second apart decide whether the remote host is down. Link scores
// (loss over the last 100 probes, EWMA latency) are published to a shared
// link-state table from which per-node routers compose one-hop paths.
//
// Modeling notes (documented substitutions):
//  * Link-state dissemination is modeled as publication into a shared
//    table rather than explicit flooding packets; the O(N^2) probe and
//    routing overhead is accounted analytically in model/overhead.h.
//  * Host failures (machines crashing while the network stays up) are an
//    explicit per-node on/off process so the measurement pipeline can
//    exercise the paper's 90-second host-failure filter.
//
// Bandwidth cap (DESIGN.md §14): the probed/announced graph is a
// NeighborSet, the full mesh at fanout 0 or >= n-1 and otherwise the
// k-nearest peers plus landmarks. Each node announces at most ~fanout
// peers per probe round by rotating through its neighbor row: a row of
// degree d probes each peer every stride = ceil(d / fanout) intervals
// (stride 1 when uncapped or d <= fanout), rotation slots spread across
// the stride so per-round announcement volume stays ~fanout.
// Announcements are metered per node per round against an explicit byte
// budget on every overlay (a publish that would exceed it is suppressed
// and counted — the derived budget is provably never hit by the rotation
// itself). Published entries carry their stride so staleness bounds
// scale with the slower cadence, and a publisher also refreshes the
// mirror entry (peer -> self) when the peer's stride is above 1 — that
// keeps landmark rows fresh via their neighbors' announcements (one
// bidirectional LSA, charged once). On a full mesh every stride is 1 and
// no mirrors are written, so fanout 0 and fanout n-1 run the same
// schedule bit for bit (CappedOverlay.FullFanoutBitwiseEquivalentToLegacyMesh).
//
// Control-plane layout: every per-edge record is flat and indexed by the
// edge's CSR rank — the estimators (whose loss windows are inline bit
// rings), the link-state entries and the probe ticks. A probe tick is one
// scheduler event whose callback holds (this, edge, src, dst) inline and
// re-arms itself one stride period later; its handle sits in a vector of
// EventHandle, so a checkpoint reads every tick's (at, seq) in O(1).

#ifndef RONPATH_OVERLAY_OVERLAY_H_
#define RONPATH_OVERLAY_OVERLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "event/scheduler.h"
#include "fault/injector.h"
#include "net/network.h"
#include "overlay/estimator.h"
#include "overlay/link_state.h"
#include "overlay/neighbors.h"
#include "overlay/router.h"
#include "util/ids.h"
#include "util/rng.h"
#include "wire/packet.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

struct OverlayConfig {
  // Per-link probe period ("every node probes every other node once every
  // 15 seconds").
  Duration probe_interval = Duration::seconds(15);
  Duration followup_spacing = Duration::seconds(1);
  int followups = 4;
  // Probe counts as lost if the response has not returned by this bound.
  Duration probe_timeout = Duration::seconds(3);
  std::size_t loss_window = 100;
  double lat_alpha = 0.1;
  // Score link loss with an EWMA instead of the last-100 window
  // (ablation; the paper's system uses the window).
  bool use_ewma_loss = false;
  double loss_ewma_alpha = 0.03;
  RouterConfig router;

  // Host (machine) failure process per node; failed hosts stop probing,
  // responding and forwarding while the network stays up.
  double host_failures_per_month = 4.0;
  Duration host_failure_mean = Duration::minutes(45);

  // --- bandwidth-capped link-state (0 = no cap: full mesh, stride 1) ---
  // Max peers per node in the probed graph (k-nearest); each node
  // announces at most ~fanout of them per probe round, rotating.
  std::size_t fanout = 0;
  // Landmark count for hierarchical alternates (unused when the graph is
  // the full mesh).
  std::size_t landmarks = 8;
  // Modeled wire size of one link-state announcement.
  std::size_t lsa_entry_bytes = 64;
  // Per-node control budget in bytes per probe round; 0 derives
  // lsa_entry_bytes * window * (1 + 2 * followups), with window =
  // min(fanout, degree) (degree at fanout 0), the provable per-round
  // publication ceiling of the rotation (a probe chain contributes at
  // most 1 + followups publishes to its own round plus at most
  // `followups` spilling in from the previous round's chain on the same
  // link).
  std::int64_t control_budget_bytes = 0;
};

// Per-node control-plane accounting: announcement bytes per probe round
// against the budget. Rounds are global (now / probe_interval).
struct ControlMeter {
  std::int64_t round = -1;  // round of the running counter
  std::int64_t round_bytes = 0;
  std::int64_t max_round_bytes = 0;  // high-water across all rounds
  std::int64_t total_bytes = 0;
  std::int64_t total_announces = 0;
  std::int64_t suppressed = 0;  // publishes dropped by the budget
};

// Outcome of an overlay-level packet transmission.
struct OverlaySendResult {
  TransmitResult net;          // underlay outcome (up to the drop point)
  bool src_up = true;          // source host alive at send time
  bool via_up = true;          // intermediate alive (indirect paths)
  bool dst_up = true;          // destination alive at (approx) arrival

  // Packet reached a live destination host.
  [[nodiscard]] bool delivered() const { return net.delivered && via_up && dst_up; }
  // Lost for a network reason rather than host failure.
  [[nodiscard]] bool network_loss() const { return !net.delivered; }
};

class OverlayNetwork {
 public:
  // Throws std::invalid_argument when cfg.loss_window is outside
  // [1, WindowLossEstimator::kMaxWindow].
  OverlayNetwork(Network& net, Scheduler& sched, OverlayConfig cfg, Rng rng);
  // Cancels the pending probe ticks and follow-ups, which call back into
  // the overlay through its address (so it is neither copied nor moved).
  ~OverlayNetwork();
  OverlayNetwork(const OverlayNetwork&) = delete;
  OverlayNetwork& operator=(const OverlayNetwork&) = delete;

  // Begins the probing processes (idempotent).
  void start();

  // Attaches a fault injector (nullptr detaches). Component blackouts and
  // probe blackholes act in the underlay via Network's FaultHook; LSA
  // suppression (publication stops, entries go stale) and crash-restart
  // churn (node down for probing/forwarding/delivery) act here.
  void set_fault_injector(const FaultInjector* injector);
  [[nodiscard]] const FaultInjector* fault_injector() const { return fault_; }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const OverlayConfig& config() const { return cfg_; }
  [[nodiscard]] LinkStateTable& table() { return table_; }
  [[nodiscard]] Router& router(NodeId node) { return *routers_[node]; }
  [[nodiscard]] const Router& router(NodeId node) const { return *routers_[node]; }

  // The probed/announced graph (the full mesh at fanout 0 or >= n-1).
  [[nodiscard]] const NeighborSet& neighbors() const { return table_.neighbors(); }
  // Rotation stride of a node's announcements (1 when its row fits the
  // fanout or the overlay is uncapped).
  [[nodiscard]] std::uint32_t stride(NodeId node) const { return stride_[node]; }
  // Control-plane accounting, metered and enforced against the budget.
  [[nodiscard]] const ControlMeter& control_meter(NodeId node) const { return meters_[node]; }
  [[nodiscard]] std::int64_t control_budget(NodeId node) const { return budget_[node]; }

  // Ground-truth host liveness (drives probing/forwarding; the
  // measurement pipeline must *infer* it from log gaps instead).
  [[nodiscard]] bool node_up(NodeId node, TimePoint t);

  // Route selection for a packet tactic (Table 4). kRand picks uniformly
  // among intermediates that currently seem up.
  [[nodiscard]] PathSpec route(NodeId src, NodeId dst, RouteTag tag);

  // Transmits a packet on the overlay, honoring host liveness of the
  // intermediate and destination.
  OverlaySendResult send(const PathSpec& path, TimePoint t);

  // Probe bookkeeping, exposed for the measurement pipeline and tests.
  // estimator() requires (src, dst) to be an edge of the probed graph.
  [[nodiscard]] std::int64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] const LinkEstimator& estimator(NodeId src, NodeId dst) const;
  // Completed consecutive-probe-loss runs summed over all links
  // (lengths 1..5 and 6+): the overlay's outage-duration fingerprint.
  [[nodiscard]] std::array<std::int64_t, 6> loss_run_counts() const;

  // Approximate resident bytes of the overlay's per-link state
  // (estimators + link-state entries + probe ticks): the O(n * fanout)
  // quantity bench_scale reports next to process RSS.
  [[nodiscard]] std::size_t state_bytes() const;

  // Snapshot support. Pending probe ticks and follow-up chains are saved
  // as (at, seq) re-arm descriptors; restore_state expects an identically
  // constructed and started overlay whose scheduler has already been
  // reset via Scheduler::restore_clock, and re-arms those events with
  // their original sequence numbers so firing order (including FIFO
  // ties) is preserved exactly. Restore throws snap::SnapshotError for a
  // descriptor no run can produce: one behind the restored clock, one at
  // or past its next_seq, a seq that two descriptors share, or a
  // follow-up off the probed graph or with more than cfg.followups
  // probes left.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: delegates to routers, estimators, the link-state
  // table and host-failure processes, then checks probe-tick/follow-up
  // bookkeeping and control-meter consistency.
  void check_invariants(TimePoint now, std::vector<std::string>& out) const;

 private:
  // A scheduled follow-up probe: bookkeeping mirror of the closure held
  // by the scheduler, so checkpoints can serialize the chain. Entries
  // whose event has fired are pruned lazily on the next arm/save.
  struct PendingFollowup {
    NodeId src = 0;
    NodeId dst = 0;
    int remaining = 0;
    EventHandle handle;
  };

  // Probes (src, dst) once, then re-arms the edge's tick one stride
  // period later.
  void probe_tick(std::uint32_t edge, NodeId src, NodeId dst);
  [[nodiscard]] Scheduler::Callback tick_callback(std::uint32_t edge, NodeId src, NodeId dst);
  // One request/response exchange on the direct path at `now`: the
  // round-trip time, or nullopt when a leg dropped, dst was down when the
  // request arrived, or the response missed probe_timeout.
  [[nodiscard]] std::optional<Duration> probe_exchange(NodeId src, NodeId dst, TimePoint now);
  void probe_once(NodeId src, NodeId dst);
  void send_followup(NodeId src, NodeId dst, int remaining);
  // Schedules send_followup(src, dst, remaining) after followup_spacing
  // and records it in followups_.
  void arm_followup(NodeId src, NodeId dst, int remaining);
  // Drops followups_ records whose events already fired.
  void prune_followups();
  void publish(NodeId src, NodeId dst);
  // Dense pair key src * n + dst: the RNG fork key for probe stagger, so
  // an edge's stagger draw does not depend on the fanout.
  [[nodiscard]] std::size_t link_index(NodeId src, NodeId dst) const;

  Network& net_;
  Scheduler& sched_;
  OverlayConfig cfg_;
  std::size_t n_;
  Rng rng_;
  LinkStateTable table_;  // owns the probed graph (neighbors())
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<LinkEstimator> links_;  // one per directed edge, CSR order
  std::vector<std::uint32_t> stride_;   // per node, ceil(degree / window)
  std::vector<std::int64_t> budget_;    // per node, bytes per round
  std::vector<ControlMeter> meters_;    // per node
  std::vector<EventHandle> probe_ticks_;  // one per directed edge, CSR order
  std::vector<PendingFollowup> followups_;
  std::vector<LazyIntervalProcess> host_failures_;
  const FaultInjector* fault_ = nullptr;
  std::int64_t probes_sent_ = 0;
  bool started_ = false;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_OVERLAY_H_
