#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "snapshot/codec.h"

namespace ronpath {

namespace {

// The core index's first capacity, sized from the id space: a small
// topology fits every core segment at half load and never rehashes,
// while a large one starts here and doubles as segments are built.
constexpr std::size_t kMaxInitialCoreSlots = 1024;

std::size_t initial_core_slots(const Topology& topo) {
  const std::size_t cores = topo.component_count() - kSiteCompCount * topo.size();
  return std::bit_ceil(std::clamp<std::size_t>(2 * cores, 16, kMaxInitialCoreSlots));
}

}  // namespace

std::string_view to_string(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: return "none";
    case DropCause::kRandom: return "random";
    case DropCause::kBurst: return "burst";
    case DropCause::kOutage: return "outage";
    case DropCause::kInjected: return "injected";
  }
  return "?";
}

Network::Network(Topology topology, NetConfig config, Duration horizon, Rng rng)
    : topo_(std::move(topology)),
      config_(std::move(config)),
      quality_rng_(rng.fork("core-quality")),
      stretch_rng_(rng.fork("core-stretch")),
      hit_root_(rng.fork("event-hits")),
      component_root_(rng.fork("component")),
      sites_(kSiteCompCount * topo_.size()),
      cores_(initial_core_slots(topo_)),
      pkt_rng_(rng.fork("packets")) {
  // Pregenerate provider-level events per site over the run horizon.
  const std::size_t n = topo_.size();
  site_events_.resize(n);
  const auto& pe = config_.provider_events;
  if (pe.events_per_site_day > 0.0) {
    const Duration mean_gap = Duration::from_seconds_f(86'400.0 / pe.events_per_site_day);
    const double expected_events =
        horizon.to_seconds_f() / 86'400.0 * pe.events_per_site_day;
    for (NodeId s = 0; s < n; ++s) {
      site_events_[s].reserve(static_cast<std::size_t>(expected_events * 1.5) + 8);
      Rng er = rng.fork("provider-events").fork(s);
      TimePoint t = TimePoint::epoch() + er.exponential_duration(mean_gap);
      std::uint64_t seq = 0;
      while (t < TimePoint::epoch() + horizon) {
        site_events_[s].push_back({t, t + er.exponential_duration(pe.mean_duration), seq++});
        t += er.exponential_duration(mean_gap);
      }
    }
  }
}

Network::CoreIndex::CoreIndex(std::size_t capacity)
    : slots_(capacity),
      mask_(capacity - 1),
      shift_(64 - std::countr_zero(capacity)) {
  assert(capacity >= 2 && std::has_single_bit(capacity));
}

void Network::CoreIndex::place(Slot slot) {
  std::size_t i = home(slot.id);
  while (slots_[i].rec) i = (i + 1) & mask_;
  slots_[i] = std::move(slot);
}

Network::Component& Network::CoreIndex::insert(std::size_t ci, std::unique_ptr<Component> rec) {
  assert(ci != 0 && !find(ci));
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (Slot& s : old) {
      if (s.rec) place(std::move(s));
    }
  }
  Component& c = *rec;
  place(Slot{ci, std::move(rec)});
  ++size_;
  return c;
}

void Network::CoreIndex::clear() {
  for (Slot& s : slots_) s = Slot{};
  size_ = 0;
}

void Network::CoreIndex::append_sorted(
    std::vector<std::pair<std::size_t, const Component*>>& out) const {
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (const Slot& s : slots_) {
    if (s.rec) out.emplace_back(s.id, s.rec.get());
  }
  std::sort(out.begin() + first, out.end());
}

double Network::core_stretch(NodeId src, NodeId dst) const {
  const std::size_t slot = topo_.core_index(src, dst) - kSiteCompCount * topo_.size();
  const double stretch = config_.core_stretch_median *
                         std::exp(config_.core_stretch_sigma *
                                  stretch_rng_.fork(slot).normal(0.0, 1.0));
  return std::max(stretch, config_.core_stretch_min);
}

Network::Component& Network::build(std::size_t ci) {
  const ComponentId id = topo_.component(ci);
  const bool is_core = id.kind == ComponentId::Kind::kCore;
  ComponentParams params = config_.params_for(topo_, ci);
  std::vector<StateInterval> boosts;
  if (is_core) {
    // Persistent chronic quality of this segment (see config.h).
    const double q = std::min(
        config_.core_quality_max,
        std::exp(config_.core_quality_sigma * quality_rng_.fork(ci).normal(0.0, 1.0)));
    params.bursts_per_hour *= q;
    params.base_loss *= std::min(q, 5.0);

    // Provider events from either endpoint hit this segment w.p.
    // cross_fraction, decided deterministically per (site, event, segment).
    const auto& pe = config_.provider_events;
    const double event_boost = derived_boost(params, pe.event_loss_rate);
    boosts.reserve(site_events_[id.a].size() + site_events_[id.b].size());
    for (NodeId endpoint : {id.a, id.b}) {
      const Rng endpoint_rng = hit_root_.fork(endpoint);
      for (const auto& ev : site_events_[endpoint]) {
        Rng hit = endpoint_rng.fork(ev.seq).fork(ci);
        if (hit.next_double() < pe.cross_fraction) {
          boosts.push_back({ev.start, ev.end, event_boost});
        }
      }
    }
  }

  // Configured incidents.
  std::vector<LatencyAddition> additions;
  for (std::size_t ii = 0; ii < config_.incidents.size(); ++ii) {
    const Incident& inc = config_.incidents[ii];
    bool affected = false;
    if (!is_core) {
      affected = inc.scope == Incident::Scope::kAccess &&
                 (inc.site_name.empty() || topo_.site(id.a).name == inc.site_name);
    } else if (inc.scope == Incident::Scope::kCore &&
               (inc.site_name.empty() || topo_.site(id.a).name == inc.site_name ||
                topo_.site(id.b).name == inc.site_name)) {
      Rng hit = hit_root_.fork("incident").fork(ii).fork(ci);
      affected = hit.next_double() < inc.cross_fraction;
    }
    if (!affected) continue;
    const double inc_boost =
        inc.loss_rate > 0.0 ? derived_boost(params, inc.loss_rate) : inc.burst_boost;
    if (inc_boost != 1.0) boosts.push_back({inc.start, inc.end(), inc_boost});
    if (inc.added_latency > Duration::zero()) {
      additions.push_back({inc.start, inc.end(), inc.added_latency});
    }
  }

  std::sort(boosts.begin(), boosts.end(),
            [](const StateInterval& a, const StateInterval& b) { return a.start < b.start; });
  auto rec = std::make_unique<Component>(Component{
      .fixed_delay = params.fixed_delay,
      .stretched_prop = is_core ? Duration::from_seconds_f(
                                      topo_.propagation(id.a, id.b).to_seconds_f() *
                                      core_stretch(id.a, id.b))
                                : Duration::zero(),
      .ln_jitter_median = std::log(params.jitter_median.to_seconds_f()),
      .jitter_sigma = params.jitter_sigma,
      .additions = std::move(additions),
      .proc = ComponentProcess(params, topo_.site(id.a).lon_deg, std::move(boosts),
                               component_root_.fork(ci)),
  });
  ++built_;
  if (!is_core) return *(sites_[ci] = std::move(rec));
  return cores_.insert(ci, std::move(rec));
}

std::vector<std::pair<std::size_t, const Network::Component*>> Network::built_components()
    const {
  std::vector<std::pair<std::size_t, const Component*>> out;
  out.reserve(built_);
  for (std::size_t ci = 0; ci < sites_.size(); ++ci) {
    if (sites_[ci]) out.emplace_back(ci, sites_[ci].get());
  }
  cores_.append_sorted(out);
  return out;
}

Duration Network::hop_delay(const Component& c, const ComponentSample& s, TimePoint t) {
  Duration d = c.fixed_delay + c.stretched_prop;
  // Per-packet jitter.
  d += Duration::from_seconds_f(pkt_rng_.lognormal(c.ln_jitter_median, c.jitter_sigma));
  // Congestion queueing.
  if (s.queue_delay_mean > Duration::zero()) {
    d += pkt_rng_.exponential_duration(s.queue_delay_mean);
  }
  // Incident latency additions.
  for (const auto& add : c.additions) {
    if (t >= add.start && t < add.end) d += add.added;
  }
  return d;
}

TransmitResult Network::transmit(const PathSpec& path, TimePoint send_time, TrafficClass cls) {
  // Roughly-monotone query contract (loss_process.h): out-of-order sends
  // beyond kQuerySafety would read component state whose history has been
  // pruned. Assert in debug; clamp forward gracefully in release.
  assert(send_time + kQuerySafety >= max_send_ && "transmit query too far in the past");
  if (send_time + kQuerySafety < max_send_) send_time = max_send_ - kQuerySafety;
  if (send_time > max_send_) max_send_ = send_time;

  ++stats_.transmitted;
  Topology::Hop hops[Topology::kMaxHops];
  const std::size_t n_hops = topo_.hops_into(path, hops);

  // Scripted probe blackhole: control probes with an affected endpoint
  // die here; data packets pass through untouched.
  if (fault_ && cls == TrafficClass::kProbe &&
      (fault_->probe_blackhole(path.src, send_time) ||
       fault_->probe_blackhole(path.dst, send_time))) {
    ++stats_.dropped_injected;
    TransmitResult r;
    r.delivered = false;
    r.cause = DropCause::kInjected;
    r.drop_component = n_hops == 0 ? 0 : hops[0].component;
    return r;
  }

  TimePoint t = send_time;
  for (std::size_t hi = 0; hi < n_hops; ++hi) {
    const std::size_t ci = hops[hi].component;
    if (fault_ && fault_->component_down(ci, t)) {
      ++stats_.dropped_injected;
      TransmitResult r;
      r.delivered = false;
      r.cause = DropCause::kInjected;
      r.drop_component = ci;
      return r;
    }
    Component& c = component_at(ci);
    const ComponentSample s = c.proc.sample(t);
    if (pkt_rng_.bernoulli(s.drop_prob)) {
      TransmitResult r;
      r.delivered = false;
      r.cause = s.outage ? DropCause::kOutage : (s.burst ? DropCause::kBurst : DropCause::kRandom);
      r.drop_component = ci;
      switch (r.cause) {
        case DropCause::kRandom: ++stats_.dropped_random; break;
        case DropCause::kBurst: ++stats_.dropped_burst; break;
        case DropCause::kOutage: ++stats_.dropped_outage; break;
        case DropCause::kNone:
        case DropCause::kInjected: break;
      }
      return r;
    }
    t += hop_delay(c, s, t);
    // Application-level forwarding turn-around at each intermediate.
    if (hops[hi].forward_after) t += config_.forward_delay;
  }
  ++stats_.delivered;
  TransmitResult r;
  r.delivered = true;
  r.latency = t - send_time;
  return r;
}

Duration Network::base_latency(const PathSpec& path) const {
  const auto hops = topo_.hops(path);
  Duration d = Duration::zero();
  for (const auto& hop : hops) {
    const ComponentId id = topo_.component(hop.component);
    d += config_.params_for(topo_, hop.component).fixed_delay;
    if (id.kind == ComponentId::Kind::kCore) {
      d += Duration::from_seconds_f(topo_.propagation(id.a, id.b).to_seconds_f() *
                                    core_stretch(id.a, id.b));
    }
  }
  d += config_.forward_delay * path.intermediates();
  return d;
}

void Network::save_state(snap::Encoder& e) const {
  e.tag("NETW");
  // The built components in ascending index order. The set is itself a
  // deterministic function of the traffic, so an uninterrupted run and a
  // restored run converge on the same list at the same point.
  e.u64(built_);
  for (const auto& [ci, c] : built_components()) {
    e.u64(ci);
    c->proc.save_state(e);
  }
  snap::save_rng(e, pkt_rng_);
  e.i64(stats_.transmitted);
  e.i64(stats_.delivered);
  e.i64(stats_.dropped_random);
  e.i64(stats_.dropped_burst);
  e.i64(stats_.dropped_outage);
  e.i64(stats_.dropped_injected);
  e.time(max_send_);
}

void Network::restore_state(snap::Decoder& d) {
  d.expect_tag("NETW");
  // Each listed component is built fresh from its keyed forks, then
  // overwritten with the saved timeline state; the rest stay unbuilt.
  for (std::unique_ptr<Component>& c : sites_) c.reset();
  cores_.clear();
  built_ = 0;
  const std::uint64_t n_built = d.count(9);
  const std::size_t n_ids = component_count();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n_built; ++i) {
    const std::uint64_t ci = d.u64();
    if (ci >= n_ids || (i > 0 && ci <= prev)) {
      throw snap::SnapshotError("snapshot: built-component list corrupt or unsorted (index " +
                                std::to_string(ci) + " of " + std::to_string(n_ids) + ")");
    }
    prev = ci;
    component_at(ci).proc.restore_state(d);
  }
  snap::restore_rng(d, pkt_rng_);
  stats_.transmitted = d.i64();
  stats_.delivered = d.i64();
  stats_.dropped_random = d.i64();
  stats_.dropped_burst = d.i64();
  stats_.dropped_outage = d.i64();
  stats_.dropped_injected = d.i64();
  max_send_ = d.time();
}

void Network::check_invariants(std::vector<std::string>& out) const {
  const auto built = built_components();
  for (const auto& [ci, c] : built) {
    c->proc.check_invariants("component " + std::to_string(ci), out);
  }
  if (built.size() != built_) {
    out.push_back("network: " + std::to_string(built.size()) + " components built but " +
                  std::to_string(built_) + " counted");
  }
  const std::int64_t charged = stats_.delivered + stats_.dropped_random + stats_.dropped_burst +
                               stats_.dropped_outage + stats_.dropped_injected;
  if (charged != stats_.transmitted) {
    out.push_back("network: stats not conserved (" + std::to_string(stats_.transmitted) +
                  " transmitted vs " + std::to_string(charged) + " accounted)");
  }
}

}  // namespace ronpath
