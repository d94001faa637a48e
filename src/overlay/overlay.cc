#include "overlay/overlay.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "snapshot/codec.h"

namespace ronpath {

OverlayNetwork::OverlayNetwork(Network& net, Scheduler& sched, OverlayConfig cfg, Rng rng)
    : net_(net),
      sched_(sched),
      cfg_(cfg),
      n_(net.topology().size()),
      rng_(rng.fork("overlay")),
      table_(NeighborSet::build(net.topology(), cfg_.fanout, cfg_.landmarks)) {
  routers_.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    routers_.push_back(std::make_unique<Router>(i, table_, cfg_.router));
  }
  links_.reserve(neighbors().edge_count());
  const EstimatorConfig est_cfg{cfg_.loss_window, cfg_.use_ewma_loss, cfg_.loss_ewma_alpha,
                                cfg_.lat_alpha};
  for (NodeId s = 0; s < n_; ++s) {
    for (std::size_t i = 0; i < neighbors().degree(s); ++i) links_.emplace_back(est_cfg);
  }
  stride_.resize(n_, 1);
  budget_.resize(n_, 0);
  meters_.resize(n_);
  for (NodeId i = 0; i < n_; ++i) {
    // Peers announced per round: the whole row when uncapped (fanout 0).
    const std::size_t degree = neighbors().degree(i);
    const std::size_t window = cfg_.fanout == 0 ? degree : std::min(cfg_.fanout, degree);
    if (window < degree) stride_[i] = static_cast<std::uint32_t>((degree + window - 1) / window);
    budget_[i] = cfg_.control_budget_bytes > 0
                     ? cfg_.control_budget_bytes
                     : static_cast<std::int64_t>(cfg_.lsa_entry_bytes * window) *
                           (1 + 2 * static_cast<std::int64_t>(std::max(cfg_.followups, 0)));
  }
  host_failures_.reserve(n_);
  const double per_month = cfg_.host_failures_per_month;
  for (NodeId i = 0; i < n_; ++i) {
    const Duration gap = per_month > 0.0
                             ? Duration::from_seconds_f(30.0 * 86'400.0 / per_month)
                             // ~100 years: never within any run (draws against it
                             // saturate in exponential_duration).
                             : Duration::days(36'500);
    host_failures_.emplace_back(gap, cfg_.host_failure_mean, 1.0,
                                rng_.fork("host-failure").fork(i));
  }
}

OverlayNetwork::~OverlayNetwork() {
  for (EventHandle& tick : probe_ticks_) tick.cancel();
  for (PendingFollowup& f : followups_) f.handle.cancel();
}

std::size_t OverlayNetwork::link_index(NodeId src, NodeId dst) const {
  assert(src < n_ && dst < n_ && src != dst);
  return static_cast<std::size_t>(src) * n_ + dst;
}

const LinkEstimator& OverlayNetwork::estimator(NodeId src, NodeId dst) const {
  return links_[neighbors().edge_index(src, dst)];
}

std::array<std::int64_t, 6> OverlayNetwork::loss_run_counts() const {
  std::array<std::int64_t, 6> total{};
  for (const LinkEstimator& link : links_) {
    const auto& runs = link.loss_runs();
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += runs[i];
  }
  return total;
}

std::size_t OverlayNetwork::state_bytes() const {
  // Approximate: value sizes of the per-edge and per-node containers
  // (the estimators hold their loss windows inline). Good enough to
  // demonstrate O(n * fanout) scaling next to the process-level RSS
  // bench_scale also reports.
  std::size_t bytes = links_.capacity() * sizeof(LinkEstimator);
  bytes += neighbors().edge_count() * sizeof(LinkMetrics);
  bytes += probe_ticks_.capacity() * sizeof(EventHandle);
  bytes += neighbors().edge_count() * sizeof(NodeId) + (n_ + 1) * sizeof(std::size_t);
  bytes += n_ * (sizeof(ControlMeter) + sizeof(std::uint32_t) + sizeof(std::int64_t) +
                 2 * sizeof(std::uint32_t));
  return bytes;
}

bool OverlayNetwork::node_up(NodeId node, TimePoint t) {
  if (fault_ && fault_->node_crashed(node, t)) return false;
  auto& proc = host_failures_[node];
  proc.generate_until(t + Duration::minutes(1));
  return !proc.active_at(t);
}

void OverlayNetwork::set_fault_injector(const FaultInjector* injector) {
  fault_ = injector;
  net_.set_fault_hook(injector);
}

void OverlayNetwork::start() {
  if (started_) return;
  started_ = true;
  probe_ticks_.reserve(neighbors().edge_count());
  for (NodeId s = 0; s < n_; ++s) {
    const auto row = neighbors().neighbors(s);
    const std::uint32_t stride = stride_[s];
    for (std::size_t rank = 0; rank < row.size(); ++rank) {
      const NodeId d = row[rank];
      // Stagger initial probes uniformly across the interval so the mesh
      // does not probe in lockstep. The fork key is the dense pair index
      // src * n + dst, so a stride-1 schedule is the same at every fanout
      // that keeps the full mesh; under rotation the rank's slot spreads
      // the row across the stride.
      const Duration offset =
          rng_.fork("stagger").fork(link_index(s, d)).uniform_duration(Duration::zero(),
                                                                       cfg_.probe_interval) +
          cfg_.probe_interval * static_cast<std::int64_t>(rank % stride);
      const auto edge = static_cast<std::uint32_t>(probe_ticks_.size());
      probe_ticks_.push_back(sched_.schedule_after(offset, tick_callback(edge, s, d)));
    }
  }
}

Scheduler::Callback OverlayNetwork::tick_callback(std::uint32_t edge, NodeId src, NodeId dst) {
  return [this, edge, src, dst] { probe_tick(edge, src, dst); };
}

void OverlayNetwork::probe_tick(std::uint32_t edge, NodeId src, NodeId dst) {
  probe_once(src, dst);
  // Re-armed after the probe, so a follow-up it arms takes the earlier seq.
  probe_ticks_[edge] = sched_.schedule_after(
      cfg_.probe_interval * static_cast<std::int64_t>(stride_[src]), tick_callback(edge, src, dst));
}

std::optional<Duration> OverlayNetwork::probe_exchange(NodeId src, NodeId dst, TimePoint now) {
  const TransmitResult req =
      net_.transmit(PathSpec{src, dst, kDirectVia}, now, TrafficClass::kProbe);
  if (!req.delivered || !node_up(dst, now + req.latency)) return std::nullopt;
  // Response leg, sent when the request arrives.
  const TransmitResult resp =
      net_.transmit(PathSpec{dst, src, kDirectVia}, now + req.latency, TrafficClass::kProbe);
  if (!resp.delivered) return std::nullopt;
  const Duration rtt = req.latency + resp.latency;
  if (rtt > cfg_.probe_timeout) return std::nullopt;
  return rtt;
}

void OverlayNetwork::probe_once(NodeId src, NodeId dst) {
  const TimePoint now = sched_.now();
  if (!node_up(src, now)) return;  // failed hosts stop probing

  ++probes_sent_;
  const std::optional<Duration> rtt = probe_exchange(src, dst, now);
  LinkEstimator& est = links_[neighbors().edge_index(src, dst)];
  est.record_probe(!rtt, rtt.value_or(Duration::zero()) / 2, now);
  publish(src, dst);

  if (!rtt && cfg_.followups > 0) arm_followup(src, dst, cfg_.followups);
}

void OverlayNetwork::send_followup(NodeId src, NodeId dst, int remaining) {
  const TimePoint now = sched_.now();
  const bool lost = !node_up(src, now) || !probe_exchange(src, dst, now);
  links_[neighbors().edge_index(src, dst)].record_followup(lost, now);
  publish(src, dst);
  if (lost && remaining > 1) arm_followup(src, dst, remaining - 1);
}

void OverlayNetwork::arm_followup(NodeId src, NodeId dst, int remaining) {
  prune_followups();
  PendingFollowup f;
  f.src = src;
  f.dst = dst;
  f.remaining = remaining;
  f.handle = sched_.schedule_after(cfg_.followup_spacing, [this, src, dst, remaining] {
    send_followup(src, dst, remaining);
  });
  followups_.push_back(std::move(f));
}

void OverlayNetwork::prune_followups() {
  std::erase_if(followups_, [](const PendingFollowup& f) { return !f.handle.pending(); });
}

void OverlayNetwork::publish(NodeId src, NodeId dst) {
  // Suppressed advertisements simply never reach the table; the old entry
  // stays and (with entry_ttl set) ages out to "unknown".
  const TimePoint now = sched_.now();
  if (fault_ && fault_->lsa_suppressed(src, now)) return;

  // Control-plane accounting: one announcement per publish, metered per
  // global probe round and enforced against the node's budget (the
  // rotation provably stays within the derived budget, so enforcement is
  // a guard rail, not a steady-state behavior).
  ControlMeter& meter = meters_[src];
  const std::int64_t round = now.since_epoch() / cfg_.probe_interval;
  if (round != meter.round) {
    meter.round = round;
    meter.round_bytes = 0;
  }
  const auto bytes = static_cast<std::int64_t>(cfg_.lsa_entry_bytes);
  if (meter.round_bytes + bytes > budget_[src]) {
    ++meter.suppressed;
    return;
  }
  meter.round_bytes += bytes;
  meter.max_round_bytes = std::max(meter.max_round_bytes, meter.round_bytes);
  meter.total_bytes += bytes;
  ++meter.total_announces;

  const LinkEstimator& est = links_[neighbors().edge_index(src, dst)];
  LinkMetrics m;
  m.loss = est.loss();
  m.latency = est.latency();
  m.has_latency = est.latency() != Duration::max();
  m.down = est.down();
  m.samples = est.samples();
  m.published = now;
  m.stride = stride_[src];
  table_.publish(src, dst, m);
  // An announcement is bidirectional: when the peer's own rotation is
  // slower than one round, refresh the mirror entry too so slow-rotating
  // rows (landmarks above all) stay fresh through their neighbors'
  // announcements. Same LSA, so it is charged once above. Never fires on
  // a full mesh, where every stride is 1.
  if (stride_[dst] > 1) table_.publish(dst, src, m);
}

PathSpec OverlayNetwork::route(NodeId src, NodeId dst, RouteTag tag) {
  assert(src != dst && src < n_ && dst < n_);
  switch (tag) {
    case RouteTag::kDirect:
      return PathSpec{src, dst, kDirectVia};
    case RouteTag::kRand: {
      const auto candidates = routers_[src]->live_intermediates(dst);
      if (candidates.empty()) return PathSpec{src, dst, kDirectVia};
      const auto pick = rng_.next_below(candidates.size());
      return PathSpec{src, dst, candidates[pick]};
    }
    case RouteTag::kLat:
      return routers_[src]->best_lat_path(dst, sched_.now()).path;
    case RouteTag::kLoss:
      return routers_[src]->best_loss_path(dst, sched_.now()).path;
  }
  return PathSpec{src, dst, kDirectVia};
}

OverlaySendResult OverlayNetwork::send(const PathSpec& path, TimePoint t) {
  OverlaySendResult r;
  r.src_up = node_up(path.src, t);
  if (!path.is_direct()) {
    // Liveness of the intermediate is checked at (approximately) the
    // time the packet reaches it; hour-scale failures make the
    // sub-second approximation immaterial.
    r.via_up = node_up(path.via, t);
  }
  if (!r.via_up) {
    // The packet dies at a dead forwarder; the underlay is not exercised
    // beyond the first leg. Model as a transmit of the first leg only.
    r.net = net_.transmit(PathSpec{path.src, path.via, kDirectVia}, t);
    r.net.delivered = false;
    return r;
  }
  r.net = net_.transmit(path, t);
  if (r.net.delivered) {
    r.dst_up = node_up(path.dst, t + r.net.latency);
  }
  return r;
}

void OverlayNetwork::save_state(snap::Encoder& e) const {
  e.tag("OVLY");
  snap::save_rng(e, rng_);
  e.b(started_);
  e.i64(probes_sent_);
  table_.save_state(e);
  for (const auto& router : routers_) router->save_state(e);
  // Estimators in CSR edge order (for a full mesh this is s-major,
  // d-minor order).
  for (const LinkEstimator& link : links_) link.save_state(e);
  for (const LazyIntervalProcess& proc : host_failures_) proc.save_state(e);
  for (const ControlMeter& m : meters_) {
    e.i64(m.round);
    e.i64(m.round_bytes);
    e.i64(m.max_round_bytes);
    e.i64(m.total_bytes);
    e.i64(m.total_announces);
    e.i64(m.suppressed);
  }

  // Pending probe ticks: one re-arm descriptor per edge, in CSR edge order.
  e.u64(probe_ticks_.size());
  for (const EventHandle& tick : probe_ticks_) {
    TimePoint at;
    std::uint64_t seq = 0;
    const bool pending = sched_.pending_entry(tick, &at, &seq);
    e.b(pending);
    if (pending) {
      e.time(at);
      e.u64(seq);
    }
  }

  // Pending follow-up chains. Fired entries are pruned lazily, so collect
  // the still-pending ones first.
  std::vector<std::tuple<NodeId, NodeId, int, TimePoint, std::uint64_t>> live;
  live.reserve(followups_.size());
  for (const PendingFollowup& f : followups_) {
    TimePoint at;
    std::uint64_t seq = 0;
    if (sched_.pending_entry(f.handle, &at, &seq)) {
      live.emplace_back(f.src, f.dst, f.remaining, at, seq);
    }
  }
  e.u64(live.size());
  for (const auto& [src, dst, remaining, at, seq] : live) {
    e.u64(src);
    e.u64(dst);
    e.i64(remaining);
    e.time(at);
    e.u64(seq);
  }
}

void OverlayNetwork::restore_state(snap::Decoder& d) {
  d.expect_tag("OVLY");
  snap::restore_rng(d, rng_);
  if (d.b() != started_) {
    throw snap::SnapshotError("snapshot: overlay started flag mismatch");
  }
  probes_sent_ = d.i64();
  table_.restore_state(d);
  for (const auto& router : routers_) router->restore_state(d);
  for (LinkEstimator& link : links_) link.restore_state(d);
  for (LazyIntervalProcess& proc : host_failures_) proc.restore_state(d);
  for (ControlMeter& m : meters_) {
    m.round = d.i64();
    m.round_bytes = d.i64();
    m.max_round_bytes = d.i64();
    m.total_bytes = d.i64();
    m.total_announces = d.i64();
    m.suppressed = d.i64();
    if (m.round_bytes < 0 || m.max_round_bytes < m.round_bytes || m.total_bytes < 0 ||
        m.total_announces < 0 || m.suppressed < 0) {
      throw snap::SnapshotError("snapshot: malformed control meter");
    }
  }

  // Every re-armed event must lie at or after the restored clock and
  // below its next_seq, and no two may share a seq: the heap orders by
  // (at, seq), so any of these would reorder or rewind the run.
  std::vector<std::uint64_t> seqs;
  const auto rearm = [&](const char* what, Scheduler::Callback cb) {
    const TimePoint at = d.time();
    const std::uint64_t seq = d.u64();
    if (at < sched_.now()) {
      throw snap::SnapshotError(std::string("snapshot: ") + what + " at " +
                                at.since_epoch().to_string() + " precedes the restored clock " +
                                sched_.now().since_epoch().to_string());
    }
    if (seq >= sched_.next_seq()) {
      throw snap::SnapshotError(std::string("snapshot: ") + what + " seq " +
                                std::to_string(seq) + " >= next_seq " +
                                std::to_string(sched_.next_seq()));
    }
    seqs.push_back(seq);
    return sched_.schedule_at_restored(at, seq, std::move(cb));
  };

  const std::uint64_t n_ticks = d.u64();
  if (n_ticks != probe_ticks_.size()) {
    throw snap::SnapshotError("snapshot: probe tick count mismatch (snapshot has " +
                              std::to_string(n_ticks) + ", overlay has " +
                              std::to_string(probe_ticks_.size()) + ")");
  }
  seqs.reserve(probe_ticks_.size());
  for (NodeId s = 0; started_ && s < n_; ++s) {  // ticks exist once started
    const auto row = neighbors().neighbors(s);
    const auto row_begin = static_cast<std::uint32_t>(neighbors().row_begin(s));
    for (std::uint32_t rank = 0; rank < row.size(); ++rank) {
      const std::uint32_t edge = row_begin + rank;
      probe_ticks_[edge].cancel();
      probe_ticks_[edge] =
          d.b() ? rearm("probe tick", tick_callback(edge, s, row[rank])) : EventHandle{};
    }
  }

  followups_.clear();
  const std::uint64_t n_follow = d.count(40);
  for (std::uint64_t i = 0; i < n_follow; ++i) {
    // Checked before narrowing: a chain runs on a probed edge with 1 to
    // `followups` probes left.
    const std::uint64_t src64 = d.u64();
    const std::uint64_t dst64 = d.u64();
    const std::int64_t remaining64 = d.i64();
    if (src64 >= n_ || dst64 >= n_ ||
        !neighbors().adjacent(static_cast<NodeId>(src64), static_cast<NodeId>(dst64)) ||
        remaining64 < 1 || remaining64 > cfg_.followups) {
      throw snap::SnapshotError("snapshot: malformed follow-up descriptor");
    }
    PendingFollowup f;
    f.src = static_cast<NodeId>(src64);
    f.dst = static_cast<NodeId>(dst64);
    f.remaining = static_cast<int>(remaining64);
    f.handle = rearm("follow-up", [this, src = f.src, dst = f.dst, remaining = f.remaining] {
      send_followup(src, dst, remaining);
    });
    followups_.push_back(std::move(f));
  }
  std::sort(seqs.begin(), seqs.end());
  const auto repeat = std::adjacent_find(seqs.begin(), seqs.end());
  if (repeat != seqs.end()) {
    throw snap::SnapshotError("snapshot: two overlay events share seq " +
                              std::to_string(*repeat));
  }
}

void OverlayNetwork::check_invariants(TimePoint now, std::vector<std::string>& out) const {
  table_.check_invariants(now, out);
  for (const auto& router : routers_) router->check_invariants(now, out);
  {
    std::size_t i = 0;
    for (NodeId s = 0; s < n_; ++s) {
      for (const NodeId d : neighbors().neighbors(s)) {
        const std::string who =
            "estimator " + std::to_string(s) + "->" + std::to_string(d);
        links_[i++].check_invariants(who, now, out);
      }
    }
  }
  for (NodeId i = 0; i < host_failures_.size(); ++i) {
    host_failures_[i].check_invariants("host-failure " + std::to_string(i), out);
  }
  if (probes_sent_ < 0) out.push_back("overlay: negative probe counter");
  if (started_ && probe_ticks_.size() != neighbors().edge_count()) {
    out.push_back("overlay: probe tick count does not cover the mesh");
  }
  for (NodeId i = 0; i < n_; ++i) {
    const ControlMeter& m = meters_[i];
    const std::string who = "control meter " + std::to_string(i);
    if (m.round_bytes < 0 || m.total_bytes < 0 || m.total_announces < 0 || m.suppressed < 0) {
      out.push_back(who + ": negative counter");
    }
    if (m.round_bytes > m.max_round_bytes) {
      out.push_back(who + ": running round above its recorded high-water");
    }
    if (m.max_round_bytes > budget_[i]) {
      out.push_back(who + ": round bytes exceeded the control budget");
    }
    if (stride_[i] == 0) out.push_back("overlay: zero rotation stride");
  }
  for (const PendingFollowup& f : followups_) {
    if (!f.handle.pending()) continue;  // fired but not yet pruned: fine
    if (f.remaining < 1 || f.remaining > cfg_.followups) {
      out.push_back("overlay: pending follow-up with remaining outside [1, " +
                    std::to_string(cfg_.followups) + "]");
    }
  }
}

}  // namespace ronpath
