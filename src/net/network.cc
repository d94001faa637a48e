#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "snapshot/codec.h"

namespace ronpath {
namespace {

// Sorts and returns boost intervals by start time.
std::vector<StateInterval> sorted(std::vector<StateInterval> v) {
  std::sort(v.begin(), v.end(),
            [](const StateInterval& a, const StateInterval& b) { return a.start < b.start; });
  return v;
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
    : topo_(std::move(topology)), config_(std::move(config)), pkt_rng_(rng.fork("packets")) {
  const std::size_t n_components = topo_.component_count();
  const std::size_t n = topo_.size();
  site_comp_count_ = kSiteCompCount * n;

  // Pregenerate provider-level events per site over the run horizon.
  std::vector<std::vector<SiteEvent>> site_events(n);
  const auto& pe = config_.provider_events;
  if (pe.events_per_site_day > 0.0) {
    const Duration mean_gap = Duration::from_seconds_f(86'400.0 / pe.events_per_site_day);
    const double expected_events =
        horizon.to_seconds_f() / 86'400.0 * pe.events_per_site_day;
    for (NodeId s = 0; s < n; ++s) {
      site_events[s].reserve(static_cast<std::size_t>(expected_events * 1.5) + 8);
      Rng er = rng.fork("provider-events").fork(s);
      TimePoint t = TimePoint::epoch() + er.exponential_duration(mean_gap);
      std::uint64_t seq = 0;
      while (t < TimePoint::epoch() + horizon) {
        site_events[s].push_back({t, t + er.exponential_duration(pe.mean_duration), seq++});
        t += er.exponential_duration(mean_gap);
      }
    }
  }

  if (config_.lazy_components) {
    // Lazy mode: keep the keyed construction forks and the pregenerated
    // site events, materialize only the per-site components now; cores
    // (the n*(n-1) bulk) are built on first touch in core_at(), with
    // construction bit-identical to the eager branch below.
    lazy_ = std::make_unique<LazyCtx>(
        LazyCtx{rng.fork("core-quality"), rng.fork("core-stretch"), rng.fork("event-hits"),
                rng.fork("component"), std::move(site_events)});
    latency_additions_.resize(site_comp_count_);
    components_.reserve(site_comp_count_);
    for (std::size_t ci = 0; ci < site_comp_count_; ++ci) {
      const ComponentId id = topo_.component(ci);
      ComponentParams params = config_.params_for(topo_, ci);
      std::vector<StateInterval> boosts;
      for (const Incident& inc : config_.incidents) {
        const bool affected =
            inc.scope == Incident::Scope::kAccess &&
            (inc.site_name.empty() || topo_.site(id.a).name == inc.site_name);
        if (!affected) continue;
        const double inc_boost =
            inc.loss_rate > 0.0 ? derived_boost(params, inc.loss_rate) : inc.burst_boost;
        if (inc_boost != 1.0) boosts.push_back({inc.start, inc.end(), inc_boost});
        if (inc.added_latency > Duration::zero()) {
          latency_additions_[ci].push_back({inc.start, inc.end(), inc.added_latency});
        }
      }
      components_.emplace_back(params, topo_.site(id.a).lon_deg, sorted(std::move(boosts)),
                               rng.fork("component").fork(ci));
    }
    hop_meta_.resize(site_comp_count_);
    for (std::size_t ci = 0; ci < site_comp_count_; ++ci) {
      const ComponentParams& p = components_[ci].params();
      HopMeta& m = hop_meta_[ci];
      m.fixed_delay = p.fixed_delay;
      m.ln_jitter_median = std::log(p.jitter_median.to_seconds_f());
      m.jitter_sigma = p.jitter_sigma;
      m.is_core = false;
      m.has_additions = !latency_additions_[ci].empty();
    }
    return;
  }

  // Resolve per-component static boosts, latency additions and stretch.
  latency_additions_.resize(n_components);
  core_stretch_.assign(n * (n - 1), 1.0);
  Rng stretch_rng = rng.fork("core-stretch");
  Rng hit_rng_root = rng.fork("event-hits");
  components_.reserve(n_components);

  Rng quality_rng = rng.fork("core-quality");
  for (std::size_t ci = 0; ci < n_components; ++ci) {
    const ComponentId id = topo_.component(ci);
    ComponentParams params = config_.params_for(topo_, ci);
    if (id.kind == ComponentId::Kind::kCore) {
      // Persistent chronic quality of this segment (see config.h).
      const double q = std::min(
          config_.core_quality_max,
          std::exp(config_.core_quality_sigma * quality_rng.fork(ci).normal(0.0, 1.0)));
      params.bursts_per_hour *= q;
      params.base_loss *= std::min(q, 5.0);
    }
    std::vector<StateInterval> boosts;

    if (id.kind == ComponentId::Kind::kCore) {
      // Routing stretch for this ordered pair.
      const std::size_t core_slot = ci - kSiteCompCount * n;
      double stretch = config_.core_stretch_median *
                       std::exp(config_.core_stretch_sigma *
                                stretch_rng.fork(core_slot).normal(0.0, 1.0));
      core_stretch_[core_slot] = std::max(stretch, config_.core_stretch_min);

      // Provider events from either endpoint hit this segment w.p.
      // cross_fraction, decided deterministically per (site, event, segment).
      const double event_boost = derived_boost(params, pe.event_loss_rate);
      boosts.reserve(site_events[id.a].size() + site_events[id.b].size());
      for (NodeId endpoint : {id.a, id.b}) {
        const Rng endpoint_rng = hit_rng_root.fork(endpoint);
        for (const auto& ev : site_events[endpoint]) {
          Rng hit = endpoint_rng.fork(ev.seq).fork(ci);
          if (hit.next_double() < pe.cross_fraction) {
            boosts.push_back({ev.start, ev.end, event_boost});
          }
        }
      }
    }

    // Configured incidents.
    for (std::size_t ii = 0; ii < config_.incidents.size(); ++ii) {
      const Incident& inc = config_.incidents[ii];
      bool affected = false;
      if (id.kind == ComponentId::Kind::kSite) {
        affected = inc.scope == Incident::Scope::kAccess &&
                   (inc.site_name.empty() || topo_.site(id.a).name == inc.site_name);
      } else {
        if (inc.scope == Incident::Scope::kCore) {
          const bool incident_site = inc.site_name.empty() ||
                                     topo_.site(id.a).name == inc.site_name ||
                                     topo_.site(id.b).name == inc.site_name;
          if (incident_site) {
            Rng hit = hit_rng_root.fork("incident").fork(ii).fork(ci);
            affected = hit.next_double() < inc.cross_fraction;
          }
        }
      }
      if (!affected) continue;
      const double inc_boost =
          inc.loss_rate > 0.0 ? derived_boost(params, inc.loss_rate) : inc.burst_boost;
      if (inc_boost != 1.0) {
        boosts.push_back({inc.start, inc.end(), inc_boost});
      }
      if (inc.added_latency > Duration::zero()) {
        latency_additions_[ci].push_back({inc.start, inc.end(), inc.added_latency});
      }
    }

    const NodeId param_site = id.a;
    components_.emplace_back(params, topo_.site(param_site).lon_deg,
                             sorted(std::move(boosts)), rng.fork("component").fork(ci));
  }

  // Resolve the per-hop constants the packet loop reads on every traversal.
  hop_meta_.resize(n_components);
  for (std::size_t ci = 0; ci < n_components; ++ci) {
    const ComponentParams& p = components_[ci].params();
    HopMeta& m = hop_meta_[ci];
    m.fixed_delay = p.fixed_delay;
    m.ln_jitter_median = std::log(p.jitter_median.to_seconds_f());
    m.jitter_sigma = p.jitter_sigma;
    m.is_core = ci >= kSiteCompCount * n;
    m.has_additions = !latency_additions_[ci].empty();
    if (m.is_core) {
      const ComponentId id = topo_.component(ci);
      m.stretched_prop = Duration::from_seconds_f(
          topo_.propagation(id.a, id.b).to_seconds_f() * core_stretch(id.a, id.b));
    }
  }
}

double Network::core_stretch(NodeId src, NodeId dst) const {
  const std::size_t slot = topo_.core_index(src, dst) - kSiteCompCount * topo_.size();
  if (!lazy_) return core_stretch_[slot];
  // Lazy mode skips the dense stretch table; the value is a pure function
  // of the keyed fork, recomputed on demand (same expression as eager).
  const double stretch = config_.core_stretch_median *
                         std::exp(config_.core_stretch_sigma *
                                  lazy_->stretch_rng.fork(slot).normal(0.0, 1.0));
  return std::max(stretch, config_.core_stretch_min);
}

Network::CoreState& Network::core_at(std::size_t ci) {
  assert(lazy_ != nullptr && ci >= site_comp_count_ && ci < topo_.component_count());
  const auto it = cores_.find(ci);
  if (it != cores_.end()) return it->second;

  // Mirrors the eager ctor's per-core construction exactly — same fork
  // keys, same draw order per object; keep the two in sync.
  const ComponentId id = topo_.component(ci);
  ComponentParams params = config_.params_for(topo_, ci);
  const double q = std::min(
      config_.core_quality_max,
      std::exp(config_.core_quality_sigma * lazy_->quality_rng.fork(ci).normal(0.0, 1.0)));
  params.bursts_per_hour *= q;
  params.base_loss *= std::min(q, 5.0);

  std::vector<StateInterval> boosts;
  const auto& pe = config_.provider_events;
  const double event_boost = derived_boost(params, pe.event_loss_rate);
  boosts.reserve(lazy_->site_events[id.a].size() + lazy_->site_events[id.b].size());
  for (NodeId endpoint : {id.a, id.b}) {
    const Rng endpoint_rng = lazy_->hit_root.fork(endpoint);
    for (const auto& ev : lazy_->site_events[endpoint]) {
      Rng hit = endpoint_rng.fork(ev.seq).fork(ci);
      if (hit.next_double() < pe.cross_fraction) {
        boosts.push_back({ev.start, ev.end, event_boost});
      }
    }
  }

  std::vector<LatencyAddition> additions;
  for (std::size_t ii = 0; ii < config_.incidents.size(); ++ii) {
    const Incident& inc = config_.incidents[ii];
    if (inc.scope != Incident::Scope::kCore) continue;
    const bool incident_site = inc.site_name.empty() ||
                               topo_.site(id.a).name == inc.site_name ||
                               topo_.site(id.b).name == inc.site_name;
    if (!incident_site) continue;
    Rng hit = lazy_->hit_root.fork("incident").fork(ii).fork(ci);
    if (hit.next_double() >= inc.cross_fraction) continue;
    const double inc_boost =
        inc.loss_rate > 0.0 ? derived_boost(params, inc.loss_rate) : inc.burst_boost;
    if (inc_boost != 1.0) boosts.push_back({inc.start, inc.end(), inc_boost});
    if (inc.added_latency > Duration::zero()) {
      additions.push_back({inc.start, inc.end(), inc.added_latency});
    }
  }

  CoreState st{ComponentProcess(params, topo_.site(id.a).lon_deg, sorted(std::move(boosts)),
                                lazy_->component_root.fork(ci)),
               HopMeta{}, std::move(additions)};
  st.meta.fixed_delay = params.fixed_delay;
  st.meta.ln_jitter_median = std::log(params.jitter_median.to_seconds_f());
  st.meta.jitter_sigma = params.jitter_sigma;
  st.meta.is_core = true;
  st.meta.has_additions = !st.additions.empty();
  st.meta.stretched_prop = Duration::from_seconds_f(
      topo_.propagation(id.a, id.b).to_seconds_f() * core_stretch(id.a, id.b));
  return cores_.emplace(ci, std::move(st)).first->second;
}

ComponentProcess& Network::component_at(std::size_t ci) {
  if (lazy_ && ci >= site_comp_count_) return core_at(ci).proc;
  return components_[ci];
}

const Network::HopMeta& Network::hop_meta_at(std::size_t ci) {
  if (lazy_ && ci >= site_comp_count_) return core_at(ci).meta;
  return hop_meta_[ci];
}

const std::vector<Network::LatencyAddition>& Network::additions_at(std::size_t ci) {
  if (lazy_ && ci >= site_comp_count_) return core_at(ci).additions;
  return latency_additions_[ci];
}

Duration Network::hop_delay(std::size_t component, const ComponentSample& s, TimePoint t) {
  const HopMeta& m = hop_meta_at(component);
  Duration d = m.fixed_delay;
  if (m.is_core) d += m.stretched_prop;
  // Per-packet jitter.
  d += Duration::from_seconds_f(pkt_rng_.lognormal(m.ln_jitter_median, m.jitter_sigma));
  // Congestion queueing.
  if (s.queue_delay_mean > Duration::zero()) {
    d += pkt_rng_.exponential_duration(s.queue_delay_mean);
  }
  // Incident latency additions.
  if (m.has_additions) {
    for (const auto& add : additions_at(component)) {
      if (t >= add.start && t < add.end) d += add.added;
    }
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
    const ComponentSample s = component_at(ci).sample(t);
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
    t += hop_delay(ci, s, t);
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
  // Lazy-core marker plus the materialized-core set (sorted for
  // determinism). The set is itself a deterministic function of the
  // traffic, so an uninterrupted run and a restored run converge on the
  // same list at the same point.
  e.b(lazy_ != nullptr);
  e.u64(components_.size());
  for (const ComponentProcess& c : components_) c.save_state(e);
  if (lazy_) {
    std::vector<std::size_t> keys;
    keys.reserve(cores_.size());
    for (const auto& [ci, st] : cores_) keys.push_back(ci);
    std::sort(keys.begin(), keys.end());
    e.u64(keys.size());
    for (const std::size_t ci : keys) {
      e.u64(ci);
      cores_.at(ci).proc.save_state(e);
    }
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
  const bool lazy = d.b();
  if (lazy != (lazy_ != nullptr)) {
    throw snap::SnapshotError(std::string("snapshot: component materialization mismatch "
                                          "(snapshot is ") +
                              (lazy ? "lazy" : "eager") + ", network is " +
                              (lazy_ ? "lazy" : "eager") + ")");
  }
  const std::uint64_t n = d.u64();
  if (n != components_.size()) {
    throw snap::SnapshotError("snapshot: component count mismatch (snapshot has " +
                              std::to_string(n) + ", network has " +
                              std::to_string(components_.size()) +
                              " — different topology or configuration)");
  }
  for (ComponentProcess& c : components_) c.restore_state(d);
  if (lazy_) {
    // Clear and rebuild the materialized set: each listed core is built
    // fresh from its keyed forks, then overwritten with the saved
    // timeline state.
    cores_.clear();
    const std::uint64_t n_cores = d.count(9);
    std::size_t prev = 0;
    for (std::uint64_t i = 0; i < n_cores; ++i) {
      const std::uint64_t ci = d.u64();
      if (ci < site_comp_count_ || ci >= topo_.component_count() ||
          (i > 0 && ci <= prev)) {
        throw snap::SnapshotError("snapshot: materialized-core list corrupt or unsorted");
      }
      prev = ci;
      core_at(ci).proc.restore_state(d);
    }
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
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i].check_invariants("component " + std::to_string(i), out);
  }
  if (lazy_) {
    std::vector<std::size_t> keys;
    keys.reserve(cores_.size());
    for (const auto& [ci, st] : cores_) {
      if (ci < site_comp_count_ || ci >= topo_.component_count()) {
        out.push_back("network: materialized core with out-of-range index " +
                      std::to_string(ci));
      }
      keys.push_back(ci);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::size_t ci : keys) {
      cores_.at(ci).proc.check_invariants("component " + std::to_string(ci), out);
    }
  }
  const std::int64_t charged = stats_.delivered + stats_.dropped_random + stats_.dropped_burst +
                               stats_.dropped_outage + stats_.dropped_injected;
  if (charged != stats_.transmitted) {
    out.push_back("network: stats not conserved (" + std::to_string(stats_.transmitted) +
                  " transmitted vs " + std::to_string(charged) + " accounted)");
  }
}

}  // namespace ronpath
