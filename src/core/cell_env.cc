#include "core/cell_env.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "net/config.h"
#include "net/scale_topology.h"
#include "snapshot/codec.h"

namespace ronpath {
namespace {

HybridMode sender_mode(FaultScheme scheme) {
  return scheme == FaultScheme::kMesh ? HybridMode::kAlwaysDuplicate : HybridMode::kAdaptive;
}

double pct(std::int64_t lost, std::int64_t sent) {
  return sent > 0 ? 100.0 * static_cast<double>(lost) / static_cast<double>(sent) : 0.0;
}

// Turns a CBR delivery timeline (one sample per send_interval from
// warmup end) into the per-phase loss rates and failover/recovery times.
FaultCell analyze_timeline(const std::vector<bool>& delivered, const FaultMatrixConfig& cfg,
                           TimePoint fault_start, TimePoint fault_end) {
  const TimePoint measure_start = TimePoint::epoch() + cfg.warmup;
  const auto time_of = [&](std::size_t i) {
    return measure_start + cfg.send_interval * static_cast<std::int64_t>(i);
  };
  const std::size_t n = delivered.size();
  const auto streak_ok = [&](std::size_t j) {
    if (j + static_cast<std::size_t>(cfg.stable_streak) > n) return false;
    for (int k = 0; k < cfg.stable_streak; ++k) {
      if (!delivered[j + static_cast<std::size_t>(k)]) return false;
    }
    return true;
  };

  FaultCell cell;
  std::int64_t sent_pre = 0, lost_pre = 0, sent_fault = 0, lost_fault = 0, sent_post = 0,
               lost_post = 0;
  std::size_t first_fault_loss = n;  // n = none
  std::size_t first_post = n;
  for (std::size_t i = 0; i < n; ++i) {
    const TimePoint t = time_of(i);
    const bool lost = !delivered[i];
    if (t < fault_start) {
      ++sent_pre;
      lost_pre += lost;
    } else if (t < fault_end) {
      ++sent_fault;
      lost_fault += lost;
      if (lost && first_fault_loss == n) first_fault_loss = i;
    } else {
      if (first_post == n) first_post = i;
      ++sent_post;
      lost_post += lost;
    }
  }
  cell.loss_pre_pct = pct(lost_pre, sent_pre);
  cell.loss_fault_pct = pct(lost_fault, sent_fault);
  cell.loss_post_pct = pct(lost_post, sent_post);

  if (first_fault_loss == n) {
    // The scheme rode the fault out without a single loss.
    cell.failover_measured = sent_fault > 0;
    cell.failover_s = 0.0;
  } else {
    for (std::size_t j = first_fault_loss; j < n; ++j) {
      if (streak_ok(j)) {
        cell.failover_measured = true;
        cell.failover_s = (time_of(j) - fault_start).to_seconds_f();
        break;
      }
    }
  }
  for (std::size_t j = first_post; j < n; ++j) {
    if (streak_ok(j)) {
      cell.recovery_measured = true;
      cell.recovery_s = (time_of(j) - fault_end).to_seconds_f();
      break;
    }
  }
  return cell;
}

}  // namespace

Topology select_topology(Topology testbed, std::optional<std::size_t> node_count,
                         std::size_t synth_nodes, std::uint64_t seed) {
  if (synth_nodes > 0) {
    ScaleTopologyParams params;
    params.nodes = synth_nodes;
    params.seed = seed;
    return scale_topology(params);
  }
  if (node_count && *node_count < testbed.size()) {
    std::vector<Site> subset(testbed.sites().begin(),
                             testbed.sites().begin() + static_cast<long>(*node_count));
    return Topology(std::move(subset));
  }
  return testbed;
}

void enable_graceful_degradation(OverlayConfig& cfg) {
  cfg.router.entry_ttl = cfg.probe_interval * 5;
  cfg.router.holddown_base = cfg.probe_interval * 2;
}

CellEnv::CellEnv(const Scenario& scenario, HybridMode mode, const FaultMatrixConfig& cfg,
                 std::uint64_t seed)
    : topo(select_topology(testbed_2003(), cfg.node_count, cfg.synth_nodes, cfg.seed)) {
  assert(topo.size() >= 2);
  const Duration run_span = cfg.warmup + cfg.measured;
  NetConfig net_cfg = NetConfig::profile_2003(run_span);
  // Only the scripted fault may perturb the run: organic incidents and
  // host failures would smear the failover/recovery measurements.
  net_cfg.incidents.clear();

  std::string parse_error;
  const auto schedule = FaultSchedule::parse(scenario.dsl, &parse_error);
  if (!schedule) {
    throw std::runtime_error("scenario '" + std::string(scenario.name) + "': " + parse_error);
  }
  injector.emplace(*schedule, topo, run_span + Duration::hours(1));

  Rng rng(seed);
  net.emplace(topo, net_cfg, run_span + Duration::hours(1), rng.fork("net"));

  OverlayConfig ocfg;
  ocfg.router.forward_delay = net_cfg.forward_delay;
  ocfg.host_failures_per_month = 0.0;
  ocfg.fanout = cfg.overlay_fanout;
  ocfg.landmarks = cfg.overlay_landmarks;
  enable_graceful_degradation(ocfg);
  overlay.emplace(*net, sched, ocfg, rng.fork("overlay"));
  overlay->set_fault_injector(&*injector);
  overlay->start();

  HybridConfig hcfg;
  hcfg.mode = mode;
  sender.emplace(*overlay, hcfg, rng.fork("hybrid"));
}

CellRun::CellRun(const Scenario& scenario, HybridMode mode, const FaultMatrixConfig& cfg,
                 std::uint64_t seed, const char (&tag)[5])
    : env_(scenario, mode, cfg, seed),
      tag_(tag),
      scenario_name_(scenario.name),
      dsl_(scenario.dsl),
      seed_(seed),
      cfg_(cfg),
      measure_start_(TimePoint::epoch() + cfg.warmup),
      end_(measure_start_ + cfg.measured) {}

std::uint64_t CellRun::cell_fingerprint() const {
  using snap::fnv1a;
  using snap::fnv1a_u64;
  std::uint64_t h = fnv1a(scenario_name_);
  h = fnv1a(dsl_, h);
  h = fnv1a_u64(seed_, h);
  h = fnv1a_u64(cfg_.node_count, h);
  h = fnv1a_u64(cfg_.seed, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.warmup.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.measured.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.send_interval.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.stable_streak), h);
  h = fnv1a_u64(cfg_.synth_nodes, h);
  h = fnv1a_u64(cfg_.overlay_fanout, h);
  h = fnv1a_u64(cfg_.overlay_landmarks, h);
  return h;
}

void CellRun::advance_to(std::size_t step) {
  step = std::min(step, total_steps());
  if (!warmed_) {
    env_.sched.run_until(measure_start_);
    warmed_ = true;
  }
  for (; next_step_ < step; ++next_step_) {
    const TimePoint t = step_time(next_step_);
    env_.sched.run_until(t);
    this->step(next_step_, t);
  }
}

void CellRun::run_to_end() {
  advance_to(total_steps());
  if (!drained_) {
    env_.sched.run_until(end_);
    drain();
    drained_ = true;
  }
}

void CellRun::save_state(snap::Encoder& e) const {
  e.tag(tag_);
  e.b(warmed_);
  e.b(drained_);
  e.u64(next_step_);
  save_body(e);
  e.time(env_.sched.now());
  e.u64(env_.sched.next_seq());
  e.u64(env_.sched.dispatched_events());
  env_.net->save_state(e);
  env_.overlay->save_state(e);
  env_.sender->save_state(e);
}

void CellRun::restore_state(snap::Decoder& d) {
  d.expect_tag(tag_);
  warmed_ = d.b();
  drained_ = d.b();
  next_step_ = d.u64();
  if (const char* err = progress_error()) {
    throw snap::SnapshotError(std::string("snapshot: ") + err);
  }
  restore_body(d);
  const TimePoint now = d.time();
  const std::uint64_t next_seq = d.u64();
  const std::uint64_t dispatched = d.u64();
  // Clock before owners: restore_clock invalidates every old handle and
  // empties the heap, then net/overlay re-arm with the saved sequence
  // numbers so firing order is preserved exactly.
  env_.sched.restore_clock(now, next_seq, dispatched);
  env_.net->restore_state(d);
  env_.overlay->restore_state(d);
  env_.sender->restore_state(d);
  d.expect_done();
}

void CellRun::check_invariants(std::vector<std::string>& out) const {
  env_.sched.check_invariants(out);
  env_.net->check_invariants(out);
  env_.overlay->check_invariants(env_.sched.now(), out);
  env_.sender->check_invariants(out);
  check_body(out);
  if (const char* err = progress_error()) out.push_back(std::string("world: ") + err);
}

const char* CellRun::progress_error() const {
  if (next_step_ > total_steps()) return "step cursor past the end of the run";
  if (!warmed_ && (next_step_ > 0 || drained_)) return "progress recorded before the warmup ran";
  if (drained_ && next_step_ != total_steps()) return "drained before the last step";
  return nullptr;
}

FaultCellRun::FaultCellRun(const Scenario& scenario, FaultScheme scheme,
                           const FaultMatrixConfig& cfg, std::uint64_t seed)
    : CellRun(scenario, sender_mode(scheme), cfg, seed, "WRLD"),
      scheme_(scheme),
      fault_start_(scenario.fault_start),
      fault_duration_(scenario.fault_duration) {
  delivered_.reserve(total_steps() + 1);
}

std::size_t FaultCellRun::total_steps() const {
  const std::int64_t interval = config().send_interval.count_nanos();
  return static_cast<std::size_t>((config().measured.count_nanos() + interval - 1) / interval);
}

TimePoint FaultCellRun::step_time(std::size_t i) const {
  return measure_start() + config().send_interval * static_cast<std::int64_t>(i);
}

void FaultCellRun::step(std::size_t /*i*/, TimePoint t) {
  constexpr NodeId src = 0;
  constexpr NodeId dst = 1;
  OverlayNetwork& overlay = *env_.overlay;
  bool ok = false;
  switch (scheme_) {
    case FaultScheme::kDirect:
      ok = overlay.send(overlay.route(src, dst, RouteTag::kDirect), t).delivered();
      break;
    case FaultScheme::kReactive:
      ok = overlay.send(overlay.route(src, dst, RouteTag::kLoss), t).delivered();
      break;
    case FaultScheme::kMesh:
    case FaultScheme::kHybrid:
      ok = env_.sender->send(src, dst, t).delivered();
      break;
  }
  delivered_.push_back(ok);
}

void FaultCellRun::save_body(snap::Encoder& e) const {
  e.u64(delivered_.size());
  for (const std::uint8_t byte : snap::pack_bits(delivered_)) e.u8(byte);
}

void FaultCellRun::restore_body(snap::Decoder& d) {
  const std::uint64_t n = d.count(0);
  if (n != next_step()) {
    throw snap::SnapshotError("snapshot: send counter disagrees with the delivery timeline");
  }
  delivered_.assign(n, false);
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) byte = d.u8();
    delivered_[i] = ((byte >> (i % 8)) & 1) != 0;
  }
}

void FaultCellRun::check_body(std::vector<std::string>& out) const {
  if (delivered_.size() != next_step()) {
    out.push_back("world: delivery timeline length disagrees with the send counter");
  }
}

FaultCell FaultCellRun::cell() const {
  assert(finished());
  FaultCell cell =
      analyze_timeline(delivered_, config(), fault_start_, fault_start_ + fault_duration_);
  cell.overhead = (scheme_ == FaultScheme::kMesh || scheme_ == FaultScheme::kHybrid)
                      ? env_.sender->overhead_factor()
                      : 1.0;
  cell.route_switches = env_.overlay->router(0).loss_switches(1);
  cell.injected_drops = env_.net->stats().dropped_injected;
  cell.merged_fault_windows = env_.injector->merged_window_count();
  return cell;
}

}  // namespace ronpath
