#include "workload/world.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <span>
#include <stdexcept>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

constexpr std::array<WorkloadPolicy, 3> kPolicies = {
    WorkloadPolicy::kProbeOnly, WorkloadPolicy::kStatic2, WorkloadPolicy::kAdaptive};

// Policy -> HybridSender mode. Every policy constructs the sender (the
// CellEnv fork order is fixed), but only kStatic2 and kAdaptive's kDup
// level ever call it, and those want unconditional duplication.
HybridMode sender_mode(WorkloadPolicy policy) {
  return policy == WorkloadPolicy::kProbeOnly ? HybridMode::kAdaptive
                                              : HybridMode::kAlwaysDuplicate;
}

const WorkloadConfig& validated(const WorkloadConfig& cfg) {
  const std::string err = cfg.spec.validate();
  if (!err.empty()) throw std::invalid_argument("workload spec: " + err);
  return cfg;
}

// Each flow's slot among the ordered pairs the flows use and among the
// (pair, class) keys they use, and how many of each there are. The
// flows are bucketed by source (a counting sort); each source numbers
// its destinations and (destination, class) keys in flow order through
// scratch arrays of n and 4n entries that it clears behind itself, so
// the work is O(flows + n) and nothing is sized by the n^2 pairs.
struct FlowSlots {
  std::vector<std::uint32_t> pair;
  std::vector<std::uint32_t> key;
  std::uint32_t pairs = 0;
  std::uint32_t keys = 0;
};

FlowSlots number_flows(const std::vector<Flow>& flows, std::size_t nodes) {
  std::vector<std::uint32_t> first(nodes + 1, 0);
  for (const Flow& f : flows) ++first[f.src + 1u];
  for (std::size_t s = 0; s < nodes; ++s) first[s + 1] += first[s];
  std::vector<std::uint32_t> by_src(flows.size());
  std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
  for (std::uint32_t fi = 0; fi < flows.size(); ++fi) by_src[next[flows[fi].src]++] = fi;

  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  std::vector<std::uint32_t> pair_of(nodes, kUnset);
  std::vector<std::uint32_t> key_of(nodes * kServiceClassCount, kUnset);
  const auto key_index = [](const Flow& f) {
    return f.dst * kServiceClassCount + static_cast<std::size_t>(f.cls);
  };
  FlowSlots out{std::vector<std::uint32_t>(flows.size()),
                std::vector<std::uint32_t>(flows.size())};
  for (std::size_t s = 0; s < nodes; ++s) {
    const std::span<const std::uint32_t> bucket(by_src.data() + first[s], first[s + 1] - first[s]);
    for (const std::uint32_t fi : bucket) {
      std::uint32_t& pair = pair_of[flows[fi].dst];
      std::uint32_t& key = key_of[key_index(flows[fi])];
      if (pair == kUnset) pair = out.pairs++;
      if (key == kUnset) key = out.keys++;
      out.pair[fi] = pair;
      out.key[fi] = key;
    }
    for (const std::uint32_t fi : bucket) {
      pair_of[flows[fi].dst] = kUnset;
      key_of[key_index(flows[fi])] = kUnset;
    }
  }
  return out;
}

// How a loss estimate is impossible (an EWMA of 0/1 outcomes starting
// at 0 stays in [0, 1]), or nullptr.
const char* estimate_error(double est) {
  return est >= 0.0 && est <= 1.0 ? nullptr : "loss estimate is NaN or outside [0, 1]";
}

}  // namespace

std::string_view to_string(WorkloadPolicy policy) {
  switch (policy) {
    case WorkloadPolicy::kProbeOnly: return "probe-only";
    case WorkloadPolicy::kStatic2: return "static-2x";
    case WorkloadPolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

std::span<const WorkloadPolicy> all_workload_policies() { return kPolicies; }

WorkloadWorld::WorkloadWorld(const Scenario& scenario, WorkloadPolicy policy,
                             const WorkloadConfig& cfg, std::uint64_t seed)
    : CellRun(scenario, sender_mode(policy), validated(cfg).cell, seed, "WKLD"),
      policy_(policy),
      spec_(cfg.spec),
      adaptive_(cfg.adaptive),
      traffic_(spec_, env_.topo.size(), measure_start(), end_time(),
               Rng(seed).fork("workload")) {
  nodes_ = env_.topo.size();
  // The packet schedule: every flow's CBR packets, clipped to the
  // measured window, in global (time, flow, index) order. The order is a
  // pure function of the traffic matrix, so replay is deterministic at
  // any step granularity.
  schedule_.reserve(static_cast<std::size_t>(traffic_.total_packets()));
  const std::vector<Flow>& flows = traffic_.flows();
  for (std::uint32_t fi = 0; fi < flows.size(); ++fi) {
    const Flow& f = flows[fi];
    for (std::int64_t i = 0; i < f.packets; ++i) {
      const TimePoint t = f.packet_time(i);
      if (t >= end_time()) break;
      schedule_.push_back({t, fi, i});
    }
  }
  std::sort(schedule_.begin(), schedule_.end(), [](const PacketEvent& a, const PacketEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.flow != b.flow) return a.flow < b.flow;
    return a.index < b.index;
  });

  // One EWMA per ordered pair and one controller per (pair, class) that
  // some flow uses.
  const FlowSlots slots = number_flows(flows, nodes_);
  loss_est_.assign(slots.pairs, 0.0);
  ctrl_.assign(slots.keys, AdaptiveController{});
  progress_.resize(flows.size());
  for (std::size_t fi = 0; fi < flows.size(); ++fi) {
    progress_[fi].est_slot = slots.pair[fi];
    progress_[fi].ctrl_slot = slots.key[fi];
  }
  buckets_.assign(nodes_, AccessBucket{0.0, measure_start()});
}

Duration WorkloadWorld::charge_access(NodeId src, double bytes, TimePoint t) {
  AccessBucket& b = buckets_[src];
  const double cap = spec_.access_bytes_per_s;
  const double drained = (t - b.last).to_seconds_f() * cap;
  b.backlog_bytes = std::max(0.0, b.backlog_bytes - drained);
  b.last = t;
  const Duration queue_delay = Duration::from_seconds_f(b.backlog_bytes / cap);
  b.backlog_bytes += bytes;
  return queue_delay;
}

void WorkloadWorld::score_packet(const Flow& flow, FlowProgress& fp, bool delivered,
                                 Duration latency) {
  const std::size_t cls = static_cast<std::size_t>(flow.cls);
  const ClassSpec& cs = spec_.classes[cls];
  const bool slo_ok = delivered && latency <= cs.slo_latency;
  metrics_[cls].note_packet(delivered, latency, slo_ok);
  if (delivered) {
    if (fp.burst_run > 0) {
      metrics_[cls].note_loss_burst(fp.burst_run);
      fp.burst_run = 0;
    }
  } else {
    ++fp.burst_run;
  }
}

void WorkloadWorld::flush_block(std::uint32_t flow_idx, TimePoint t) {
  FlowProgress& fp = progress_[flow_idx];
  if (fp.block.empty()) return;
  const Flow& flow = traffic_.flows()[flow_idx];
  const ClassSpec& cs = spec_.classes[static_cast<std::size_t>(flow.cls)];
  const std::size_t k_eff = fp.block.size();
  const std::size_t m = ctrl_[fp.ctrl_slot].parity(adaptive_, loss_est_[fp.est_slot]);

  // Parity shards ride the duplicate's disjoint detour relative to the
  // current primary path (shared disjointness logic with HybridSender).
  const PathSpec primary = env_.overlay->route(flow.src, flow.dst, RouteTag::kLoss);
  std::size_t delivered_shards = 0;
  TimePoint last_arrival = t;
  std::uint64_t lost_data = 0;
  for (const PendingShard& s : fp.block) {
    if (s.delivered) {
      ++delivered_shards;
      last_arrival = std::max(last_arrival, s.arrival);
    } else {
      ++lost_data;
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    const PathSpec alt = env_.sender->alternate_path(flow.src, flow.dst, primary);
    const OverlaySendResult res = env_.overlay->send(alt, t);
    const Duration queue_delay = charge_access(flow.src, cs.packet_bytes, t);
    ++copies_;
    if (res.delivered()) {
      ++delivered_shards;
      last_arrival = std::max(last_arrival, t + res.net.latency + queue_delay);
    }
  }
  ++fec_blocks_;

  // RS(k_eff, m): every lost data shard reconstructs iff at least k_eff
  // of the k_eff + m shards arrived, at the block-completion latency.
  const bool recovered = delivered_shards >= k_eff;
  for (const PendingShard& s : fp.block) {
    if (s.delivered) {
      score_packet(flow, fp, true, s.arrival - s.sent);
    } else if (recovered) {
      ++fec_recovered_;
      score_packet(flow, fp, true, last_arrival - s.sent);
    } else {
      score_packet(flow, fp, false, Duration::zero());
    }
  }
  fp.block.clear();
}

void WorkloadWorld::finish_flow(std::uint32_t flow_idx, TimePoint t) {
  FlowProgress& fp = progress_[flow_idx];
  flush_block(flow_idx, t);
  if (fp.burst_run > 0) {
    const Flow& flow = traffic_.flows()[flow_idx];
    metrics_[static_cast<std::size_t>(flow.cls)].note_loss_burst(fp.burst_run);
    fp.burst_run = 0;
  }
  fp.burst_flushed = true;
}

void WorkloadWorld::step(std::size_t i, TimePoint /*t*/) {
  const PacketEvent& ev = schedule_[i];
  const Flow& flow = traffic_.flows()[ev.flow];
  FlowProgress& fp = progress_[ev.flow];
  const ClassSpec& cs = spec_.classes[static_cast<std::size_t>(flow.cls)];
  double& loss_est = loss_est_[fp.est_slot];

  RedundancyLevel level = RedundancyLevel::kSingle;
  switch (policy_) {
    case WorkloadPolicy::kProbeOnly:
      level = RedundancyLevel::kSingle;
      break;
    case WorkloadPolicy::kStatic2:
      level = RedundancyLevel::kDup;
      break;
    case WorkloadPolicy::kAdaptive: {
      AdaptiveController& ctrl = ctrl_[fp.ctrl_slot];
      ctrl.update(adaptive_, loss_est, cs.slo_loss_pct / 100.0,
                  cs.capacity_fraction(spec_.access_bytes_per_s), ev.t);
      level = ctrl.level();
      break;
    }
  }
  // A level change with an open block closes the block under the old
  // protection so packet scoring stays in flow order.
  if (level != RedundancyLevel::kFec && !fp.block.empty()) flush_block(ev.flow, ev.t);

  bool primary_lost = false;
  switch (level) {
    case RedundancyLevel::kSingle: {
      const OverlaySendResult res =
          env_.overlay->send(env_.overlay->route(flow.src, flow.dst, RouteTag::kLoss), ev.t);
      const Duration queue_delay = charge_access(flow.src, cs.packet_bytes, ev.t);
      ++copies_;
      primary_lost = !res.delivered();
      score_packet(flow, fp, res.delivered(), res.net.latency + queue_delay);
      break;
    }
    case RedundancyLevel::kDup: {
      const HybridOutcome out = env_.sender->send(flow.src, flow.dst, ev.t);
      const Duration queue_delay = charge_access(
          flow.src, cs.packet_bytes * static_cast<double>(out.probe.copies.size()), ev.t);
      copies_ += static_cast<std::int64_t>(out.probe.copies.size());
      primary_lost = out.probe.copies.empty() || !out.probe.copies[0].delivered();
      const bool delivered = out.delivered();
      const Duration latency =
          delivered ? out.probe.first_arrival() - ev.t + queue_delay : Duration::zero();
      score_packet(flow, fp, delivered, latency);
      break;
    }
    case RedundancyLevel::kFec: {
      const OverlaySendResult res =
          env_.overlay->send(env_.overlay->route(flow.src, flow.dst, RouteTag::kLoss), ev.t);
      const Duration queue_delay = charge_access(flow.src, cs.packet_bytes, ev.t);
      ++copies_;
      primary_lost = !res.delivered();
      PendingShard shard;
      shard.sent = ev.t;
      shard.delivered = res.delivered();
      shard.arrival = res.delivered() ? ev.t + res.net.latency + queue_delay : ev.t;
      fp.block.push_back(shard);
      if (fp.block.size() >= adaptive_.fec_k) flush_block(ev.flow, ev.t);
      break;
    }
  }
  ++app_packets_;
  loss_est = (1.0 - adaptive_.loss_alpha) * loss_est +
             adaptive_.loss_alpha * (primary_lost ? 1.0 : 0.0);
  if (ev.index == flow.packets - 1) finish_flow(ev.flow, ev.t);
}

void WorkloadWorld::drain() {
  // Flows clipped by the window end never saw their last packet; close
  // their blocks and burst runs in flow order.
  for (std::uint32_t fi = 0; fi < progress_.size(); ++fi) {
    if (!progress_[fi].burst_flushed) finish_flow(fi, end_time());
  }
}

double WorkloadWorld::overhead_factor() const {
  return app_packets_ > 0
             ? static_cast<double>(copies_) / static_cast<double>(app_packets_)
             : 1.0;
}

std::int64_t WorkloadWorld::transitions() const {
  std::int64_t total = 0;
  for (const AdaptiveController& c : ctrl_) total += c.transitions();
  return total;
}

std::uint64_t WorkloadWorld::fingerprint() const {
  using snap::fnv1a_u64;
  const auto f = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = fnv1a_u64(static_cast<std::uint64_t>(policy_), cell_fingerprint());
  const WorkloadSpec& s = spec_;
  h = fnv1a_u64(f(s.population), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(s.peak_hour), h);
  h = fnv1a_u64(f(s.trough), h);
  h = fnv1a_u64(f(s.tz_spread_hours), h);
  h = fnv1a_u64(f(s.flows_per_user_hour), h);
  h = fnv1a_u64(f(s.mean_flow_packets), h);
  h = fnv1a_u64(f(s.access_bytes_per_s), h);
  for (const HotPair& hp : s.hot_pairs) {
    h = fnv1a_u64(hp.src, h);
    h = fnv1a_u64(hp.dst, h);
    h = fnv1a_u64(f(hp.weight), h);
  }
  for (const ClassSpec& cs : s.classes) {
    h = fnv1a_u64(f(cs.mix), h);
    h = fnv1a_u64(f(cs.rate_pps), h);
    h = fnv1a_u64(f(cs.packet_bytes), h);
    h = fnv1a_u64(static_cast<std::uint64_t>(cs.slo_latency.count_nanos()), h);
    h = fnv1a_u64(f(cs.slo_loss_pct), h);
  }
  const AdaptiveConfig& a = adaptive_;
  h = fnv1a_u64(f(a.loss_alpha), h);
  h = fnv1a_u64(f(a.exit_margin), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(a.min_dwell.count_nanos()), h);
  h = fnv1a_u64(a.fec_k, h);
  h = fnv1a_u64(a.fec_m_max, h);
  h = fnv1a_u64(f(a.fec_block_target), h);
  return h;
}

void WorkloadWorld::save_body(snap::Encoder& e) const {
  e.i64(app_packets_);
  e.i64(copies_);
  e.i64(fec_blocks_);
  e.i64(fec_recovered_);
  e.u64(progress_.size());
  for (const FlowProgress& fp : progress_) {
    e.u64(fp.burst_run);
    e.b(fp.burst_flushed);
    e.u64(fp.block.size());
    for (const PendingShard& s : fp.block) {
      e.time(s.sent);
      e.time(s.arrival);
      e.b(s.delivered);
    }
  }
  e.u64(buckets_.size());
  for (const AccessBucket& b : buckets_) {
    e.f64(b.backlog_bytes);
    e.time(b.last);
  }
  e.u64(loss_est_.size());
  for (const double v : loss_est_) e.f64(v);
  e.u64(ctrl_.size());
  for (const AdaptiveController& c : ctrl_) c.save_state(e);
  for (const ClassMetrics& m : metrics_) m.save_state(e);
}

void WorkloadWorld::restore_body(snap::Decoder& d) {
  app_packets_ = d.i64();
  copies_ = d.i64();
  fec_blocks_ = d.i64();
  fec_recovered_ = d.i64();
  if (d.count(1) != progress_.size()) {
    throw snap::SnapshotError("workload snapshot: flow count mismatch");
  }
  const auto reject = [](const char* err) {
    if (err) throw snap::SnapshotError(std::string("workload snapshot: ") + err);
  };
  for (FlowProgress& fp : progress_) {
    fp.burst_run = d.u64();
    fp.burst_flushed = d.b();
    const std::uint64_t shards = d.count(17);
    fp.block.resize(shards);
    for (PendingShard& s : fp.block) {
      s.sent = d.time();
      s.arrival = d.time();
      s.delivered = d.b();
    }
    reject(flow_error(fp));
  }
  if (d.count(16) != buckets_.size()) {
    throw snap::SnapshotError("workload snapshot: bucket count mismatch");
  }
  for (AccessBucket& b : buckets_) {
    b.backlog_bytes = d.f64();
    b.last = d.time();
    reject(bucket_error(b));
  }
  if (d.count(8) != loss_est_.size()) {
    throw snap::SnapshotError("workload snapshot: estimator count mismatch");
  }
  for (double& v : loss_est_) {
    v = d.f64();
    reject(estimate_error(v));
  }
  if (d.count(17) != ctrl_.size()) {
    throw snap::SnapshotError("workload snapshot: controller count mismatch");
  }
  for (AdaptiveController& c : ctrl_) c.restore_state(d);
  for (ClassMetrics& m : metrics_) m.restore_state(d);
}

std::string WorkloadWorld::report() const {
  char buf[256];
  std::string out;
  out += "== workload world ==\n";
  out += "scenario " + scenario_name() + " | policy " + std::string(to_string(policy_)) +
         " | seed " + std::to_string(seed()) + " | nodes " + std::to_string(nodes_) + "\n";
  std::snprintf(buf, sizeof buf, "clock %lldns | packets %zu/%zu | flows %zu\n",
                static_cast<long long>(env_.sched.now().since_epoch().count_nanos()),
                next_step(), schedule_.size(), traffic_.flows().size());
  out += buf;
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    const ClassMetrics& m = metrics_[c];
    const ClassSpec& cs = spec_.classes[c];
    std::snprintf(buf, sizeof buf,
                  "%-5s sent %llu delivered %llu loss %.10f%% p50 %.6fms p99 %.6fms "
                  "p999 %.6fms slo %.10f%% mos %.6f bursts %llu\n",
                  std::string(to_string(static_cast<ServiceClass>(c))).c_str(),
                  static_cast<unsigned long long>(m.sent()),
                  static_cast<unsigned long long>(m.delivered()), m.loss_pct(),
                  m.p50().to_millis_f(), m.p99().to_millis_f(), m.p999().to_millis_f(),
                  m.slo_attainment_pct(), m.mos(cs.slo_latency),
                  static_cast<unsigned long long>(m.bursts()));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "overhead %.10f | transitions %lld | fec blocks %lld recovered %lld\n",
                overhead_factor(), static_cast<long long>(transitions()),
                static_cast<long long>(fec_blocks_), static_cast<long long>(fec_recovered_));
  out += buf;
  // State digest: the serialized workload-layer state, so soak restore
  // equivalence can compare one line instead of the full payload.
  snap::Encoder e;
  for (const ClassMetrics& m : metrics_) m.save_state(e);
  std::uint64_t hash = snap::fnv1a(std::string_view(
      reinterpret_cast<const char*>(e.bytes().data()), e.bytes().size()));
  hash = snap::fnv1a_u64(next_step(), hash);
  std::snprintf(buf, sizeof buf, "metrics-hash %016llx\n",
                static_cast<unsigned long long>(hash));
  out += buf;
  return out;
}

const char* WorkloadWorld::flow_error(const FlowProgress& fp) const {
  if (fp.block.empty()) return nullptr;
  if (fp.block.size() >= adaptive_.fec_k) return "open FEC block holds fec_k or more shards";
  if (fp.burst_flushed) return "open FEC block on a flow already flushed";
  return nullptr;
}

const char* WorkloadWorld::bucket_error(const AccessBucket& b) const {
  if (!(b.backlog_bytes >= 0.0 && std::isfinite(b.backlog_bytes))) {
    return "access backlog is negative or not finite";
  }
  if (b.last < measure_start()) return "access bucket clock before the measured window";
  return nullptr;
}

void WorkloadWorld::check_body(std::vector<std::string>& out) const {
  const auto note = [&out](const char* what, std::size_t i, const char* err) {
    if (err) out.push_back("workload: " + std::string(what) + " " + std::to_string(i) + ": " + err);
  };
  for (std::size_t i = 0; i < progress_.size(); ++i) note("flow", i, flow_error(progress_[i]));
  for (std::size_t i = 0; i < buckets_.size(); ++i) note("bucket", i, bucket_error(buckets_[i]));
  for (std::size_t i = 0; i < loss_est_.size(); ++i) {
    note("estimate", i, estimate_error(loss_est_[i]));
  }
  for (const AdaptiveController& c : ctrl_) c.check_invariants(out);
  for (const ClassMetrics& m : metrics_) m.check_invariants(out);
  std::uint64_t scored = 0;
  for (const ClassMetrics& m : metrics_) scored += m.sent();
  std::uint64_t pending = 0;
  for (const FlowProgress& fp : progress_) pending += fp.block.size();
  if (scored + pending != next_step()) {
    out.push_back("workload: scored + pending packets disagree with the cursor");
  }
  if (copies_ < app_packets_) {
    out.push_back("workload: fewer copies than application packets");
  }
}

}  // namespace ronpath
