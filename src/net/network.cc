#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "snapshot/codec.h"

namespace ronpath {

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
      components_(topo_.component_count()),
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

double Network::core_stretch(NodeId src, NodeId dst) const {
  const std::size_t slot = topo_.core_index(src, dst) - kSiteCompCount * topo_.size();
  const double stretch = config_.core_stretch_median *
                         std::exp(config_.core_stretch_sigma *
                                  stretch_rng_.fork(slot).normal(0.0, 1.0));
  return std::max(stretch, config_.core_stretch_min);
}

void Network::build(std::size_t ci) {
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
  components_[ci] = std::make_unique<Component>(Component{
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
  for (std::size_t ci = 0; ci < components_.size(); ++ci) {
    if (!components_[ci]) continue;
    e.u64(ci);
    components_[ci]->proc.save_state(e);
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
  for (std::unique_ptr<Component>& c : components_) c.reset();
  built_ = 0;
  const std::uint64_t n_built = d.count(9);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n_built; ++i) {
    const std::uint64_t ci = d.u64();
    if (ci >= components_.size() || (i > 0 && ci <= prev)) {
      throw snap::SnapshotError("snapshot: built-component list corrupt or unsorted (index " +
                                std::to_string(ci) + " of " +
                                std::to_string(components_.size()) + ")");
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
  std::size_t built = 0;
  for (std::size_t ci = 0; ci < components_.size(); ++ci) {
    if (!components_[ci]) continue;
    ++built;
    components_[ci]->proc.check_invariants("component " + std::to_string(ci), out);
  }
  if (built != built_) {
    out.push_back("network: " + std::to_string(built) + " components built but " +
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
