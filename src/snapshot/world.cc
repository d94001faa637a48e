#include "snapshot/world.h"

#include <cassert>
#include <cstdio>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

// Bit-packs the delivery timeline (LSB-first within each byte).
std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

}  // namespace

SimWorld::SimWorld(const Scenario& scenario, FaultScheme scheme, const FaultMatrixConfig& cfg,
                   std::uint64_t seed)
    : scenario_name_(scenario.name),
      scenario_summary_(scenario.summary),
      dsl_(scenario.dsl),
      fault_start_(scenario.fault_start),
      fault_duration_(scenario.fault_duration),
      routable_(scenario.routable),
      scheme_(scheme),
      cfg_(cfg),
      seed_(seed),
      env_(scenario,
           scheme == FaultScheme::kMesh ? HybridMode::kAlwaysDuplicate : HybridMode::kAdaptive,
           cfg, seed) {
  delivered_.reserve(total_sends() + 1);
}

Scenario SimWorld::scenario_view() const {
  Scenario s;
  s.name = scenario_name_;
  s.summary = scenario_summary_;
  s.dsl = dsl_;
  s.fault_start = fault_start_;
  s.fault_duration = fault_duration_;
  s.routable = routable_;
  return s;
}

std::size_t SimWorld::total_sends() const {
  const std::int64_t interval = cfg_.send_interval.count_nanos();
  return static_cast<std::size_t>((cfg_.measured.count_nanos() + interval - 1) / interval);
}

bool SimWorld::send_one(TimePoint t) {
  constexpr NodeId src = 0;
  constexpr NodeId dst = 1;
  switch (scheme_) {
    case FaultScheme::kDirect:
      return env_.overlay->send(env_.overlay->route(src, dst, RouteTag::kDirect), t).delivered();
    case FaultScheme::kReactive:
      return env_.overlay->send(env_.overlay->route(src, dst, RouteTag::kLoss), t).delivered();
    case FaultScheme::kMesh:
    case FaultScheme::kHybrid:
      return env_.sender->send(src, dst, t).delivered();
  }
  return false;
}

void SimWorld::advance_to(std::size_t send_index) {
  const std::size_t total = total_sends();
  if (send_index > total) send_index = total;
  if (!warmed_) {
    env_.sched.run_until(measure_start());
    warmed_ = true;
  }
  while (next_send_ < send_index) {
    const TimePoint t =
        measure_start() + cfg_.send_interval * static_cast<std::int64_t>(next_send_);
    env_.sched.run_until(t);
    delivered_.push_back(send_one(t));
    ++next_send_;
  }
}

void SimWorld::run_to_end() {
  advance_to(total_sends());
  if (!drained_) {
    env_.sched.run_until(end_time());
    drained_ = true;
  }
}

std::uint64_t SimWorld::fingerprint() const {
  using snap::fnv1a;
  using snap::fnv1a_u64;
  std::uint64_t h = fnv1a(scenario_name_);
  h = fnv1a(dsl_, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(scheme_), h);
  h = fnv1a_u64(seed_, h);
  h = fnv1a_u64(cfg_.node_count, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.warmup.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.measured.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.send_interval.count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(cfg_.stable_streak), h);
  h = fnv1a_u64(cfg_.graceful_degradation ? 1 : 0, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(fault_start_.since_epoch().count_nanos()), h);
  h = fnv1a_u64(static_cast<std::uint64_t>(fault_duration_.count_nanos()), h);
  // Scaling knobs (DESIGN.md §14).
  h = fnv1a_u64(cfg_.synth_nodes, h);
  h = fnv1a_u64(cfg_.overlay_fanout, h);
  h = fnv1a_u64(cfg_.overlay_landmarks, h);
  return h;
}

void SimWorld::save_state(snap::Encoder& e) const {
  e.tag("WRLD");
  e.b(warmed_);
  e.b(drained_);
  e.u64(next_send_);
  e.u64(delivered_.size());
  for (const std::uint8_t byte : pack_bits(delivered_)) e.u8(byte);
  // Scheduler clock first: restore resets it before owners re-arm.
  e.time(env_.sched.now());
  e.u64(env_.sched.next_seq());
  e.u64(env_.sched.dispatched_events());
  env_.net->save_state(e);
  env_.overlay->save_state(e);
  env_.sender->save_state(e);
}

void SimWorld::restore_state(snap::Decoder& d) {
  d.expect_tag("WRLD");
  warmed_ = d.b();
  drained_ = d.b();
  next_send_ = d.u64();
  const std::uint64_t n_delivered = d.count(0);
  if (n_delivered > total_sends()) {
    throw snap::SnapshotError("snapshot: delivery timeline longer than the run");
  }
  if (next_send_ != n_delivered) {
    throw snap::SnapshotError("snapshot: send counter disagrees with the delivery timeline");
  }
  delivered_.assign(n_delivered, false);
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < n_delivered; ++i) {
    if (i % 8 == 0) byte = d.u8();
    delivered_[i] = ((byte >> (i % 8)) & 1) != 0;
  }
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

FaultCell SimWorld::cell() const {
  assert(drained_);
  const Scenario scenario = scenario_view();
  FaultCell cell = analyze_fault_cell(scenario, cfg_, delivered_);
  cell.overhead = (scheme_ == FaultScheme::kMesh || scheme_ == FaultScheme::kHybrid)
                      ? env_.sender->overhead_factor()
                      : 1.0;
  cell.route_switches = env_.overlay->router(0).loss_switches(1);
  cell.injected_drops = env_.net->stats().dropped_injected;
  cell.merged_fault_windows = env_.injector->merged_window_count();
  return cell;
}

std::string SimWorld::report() const {
  char buf[256];
  std::string out;
  out += "== sim world ==\n";
  out += "scenario " + scenario_name_ + " | scheme " + std::string(to_string(scheme_)) +
         " | seed " + std::to_string(seed_) + " | nodes " + std::to_string(env_.topo.size()) +
         "\n";
  std::snprintf(buf, sizeof buf, "clock %lldns | dispatched %llu | next-seq %llu",
                static_cast<long long>(env_.sched.now().since_epoch().count_nanos()),
                static_cast<unsigned long long>(env_.sched.dispatched_events()),
                static_cast<unsigned long long>(env_.sched.next_seq()));
  out += buf;
  out += " | sends " + std::to_string(next_send_) + "/" + std::to_string(total_sends()) + "\n";

  const Network::Stats& st = env_.net->stats();
  std::snprintf(buf, sizeof buf,
                "net: transmitted %lld | delivered %lld | drops random %lld burst %lld "
                "outage %lld injected %lld\n",
                static_cast<long long>(st.transmitted), static_cast<long long>(st.delivered),
                static_cast<long long>(st.dropped_random), static_cast<long long>(st.dropped_burst),
                static_cast<long long>(st.dropped_outage),
                static_cast<long long>(st.dropped_injected));
  out += buf;

  const std::vector<std::uint8_t> bits = pack_bits(delivered_);
  std::uint64_t hash = snap::fnv1a(
      std::string_view(reinterpret_cast<const char*>(bits.data()), bits.size()));
  hash = snap::fnv1a_u64(delivered_.size(), hash);
  std::snprintf(buf, sizeof buf, "probes sent %lld | delivered-hash %016llx\n",
                static_cast<long long>(env_.overlay->probes_sent()),
                static_cast<unsigned long long>(hash));
  out += buf;

  if (drained_) {
    const FaultCell c = cell();
    std::snprintf(buf, sizeof buf,
                  "cell: loss pre %.10f%% fault %.10f%% post %.10f%% | failover %s%.10fs | "
                  "recovery %s%.10fs | overhead %.10f | switches %lld | injected %lld\n",
                  c.loss_pre_pct, c.loss_fault_pct, c.loss_post_pct,
                  c.failover_measured ? "" : "(unmeasured) ", c.failover_s,
                  c.recovery_measured ? "" : "(unmeasured) ", c.recovery_s, c.overhead,
                  static_cast<long long>(c.route_switches),
                  static_cast<long long>(c.injected_drops));
    out += buf;
  }
  return out;
}

void SimWorld::check_invariants(std::vector<std::string>& out) const {
  env_.sched.check_invariants(out);
  env_.net->check_invariants(out);
  env_.overlay->check_invariants(env_.sched.now(), out);
  env_.sender->check_invariants(out);
  if (delivered_.size() != next_send_) {
    out.push_back("world: delivery timeline length disagrees with the send counter");
  }
  if (next_send_ > total_sends()) {
    out.push_back("world: send counter past the end of the run");
  }
  if (!warmed_ && next_send_ > 0) {
    out.push_back("world: sends recorded before warmup completed");
  }
  if (drained_ && next_send_ != total_sends()) {
    out.push_back("world: drained flag set before all sends completed");
  }
}

}  // namespace ronpath
