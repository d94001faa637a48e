// Underlay parameterization.
//
// Each underlay component (access link direction or core segment) runs
// three stochastic processes whose composition produces the loss phenomena
// the paper measures:
//
//  * short BURSTS   - router-queue overflow events lasting tens to a few
//                     hundred ms; packets inside a burst drop with high
//                     probability. These produce the high conditional loss
//                     probability of back-to-back packets (Section 4.4) and
//                     its decay with 10/20 ms spacing (Bolot's effect).
//  * EPISODES       - sustained congestion lasting minutes; an episode
//                     multiplies the burst arrival rate, creating the
//                     elevated 20-minute/hourly loss windows of Figure 3 /
//                     Table 6 that probe-based reactive routing can detect
//                     and route around.
//  * OUTAGES        - total failures lasting minutes (routing convergence,
//                     edge faults); drop probability 1.
//
// Burst arrivals are modulated by a diurnal factor (local time of the
// governing site) and by configured incidents (e.g., the Cornell latency
// pathology of ~6 May 2003 in Section 4.5).
//
// Parameters are per LinkClass for access links and per segment scope for
// core segments. The 2003 and 2002 profiles are calibrated so that a
// RON2003/RONwide run reproduces Table 5's headline numbers; see
// EXPERIMENTS.md for paper-vs-measured values.
//
// Network (network.h) resolves a component's parameters when a packet
// first traverses it. Every per-component draw is keyed by component
// index, so no parameter depends on which components were built first.

#ifndef RONPATH_NET_CONFIG_H_
#define RONPATH_NET_CONFIG_H_

#include <string>
#include <vector>

#include "net/topology.h"
#include "util/time.h"

namespace ronpath {

// Stochastic parameters of one underlay component.
struct ComponentParams {
  // Independent per-packet loss probability outside bursts/outages.
  double base_loss = 0.0002;
  // Short-burst Poisson arrival rate during quiet periods, per hour.
  double bursts_per_hour = 1.0;
  // Burst durations are a two-population mixture: a large count of very
  // short microbursts (single-queue overflow transients, gone within
  // ~10 ms) and a minority of long bursts (hundreds of ms). The mixture
  // is what shapes the paper's CLP-vs-gap curve: back-to-back packets
  // share every burst, 10/20 ms-spaced packets only the long ones, and
  // ~500 ms-spaced packets almost none (Bolot).
  Duration burst_median = Duration::millis(200);  // long-burst median
  double burst_sigma = 0.9;                       // long-burst ln-sigma
  double short_burst_fraction = 0.84;             // count fraction of microbursts
  Duration short_burst_median = Duration::millis(5);
  double short_burst_sigma = 0.6;
  // Drop probability for packets inside a burst.
  double burst_drop_prob = 0.8;
  // Mean extra one-way queueing delay while inside a burst.
  Duration burst_queue_mean = Duration::millis(12);

  // Sustained congestion episodes: Poisson arrivals per day, exponential
  // duration. Severity is specified as the target per-packet loss rate
  // while the episode is active; the implied burst-rate boost is derived
  // from the component's quiet burst parameters (see derived_boost()).
  // episode_burst_boost is used directly when episode_loss_rate == 0.
  double episodes_per_day = 0.5;
  Duration episode_mean = Duration::minutes(18);
  double episode_burst_boost = 40.0;
  double episode_loss_rate = 0.0;
  // Mean extra queueing delay during an episode (outside bursts).
  Duration episode_queue_mean = Duration::millis(3);

  // Outages: Poisson arrivals per 30 days, exponential duration.
  double outages_per_month = 1.0;
  Duration outage_mean = Duration::minutes(4);

  // Diurnal modulation amplitude of the burst rate, in [0, 1).
  double diurnal_amplitude = 0.5;

  // Deterministic one-way delay contribution (serialization / last mile
  // for access links; added to propagation for core segments).
  Duration fixed_delay = Duration::millis(1);
  // Lognormal per-packet jitter: median and sigma.
  Duration jitter_median = Duration::micros(300);
  double jitter_sigma = 0.8;
};

// A scheduled incident: time-bounded modification of the components
// associated with `site_name`. Scope selects whether the site's access
// links or the core segments incident to the site are affected; for core
// scope, each segment is (deterministically) affected with probability
// `cross_fraction`, modelling provider-level events that hit most - but
// not all - transit paths of a site, so that reactive routing can find the
// clean remainder (the Cornell latency pathology of Section 4.5 behaves
// this way: indirection avoided it).
struct Incident {
  std::string site_name;  // empty = all sites
  enum class Scope : std::uint8_t { kAccess, kCore } scope = Scope::kCore;
  TimePoint start;
  Duration duration;
  double cross_fraction = 1.0;
  // Added one-way latency on affected components while active.
  Duration added_latency = Duration::zero();
  // Multiplies the burst arrival rate on affected components while active.
  double burst_boost = 1.0;
  // Alternative severity spec: target per-packet loss rate while active
  // (overrides burst_boost when > 0).
  double loss_rate = 0.0;
  std::string description;

  [[nodiscard]] TimePoint end() const { return start + duration; }
};

// Recurrent provider-level events: congestion/instability at a site's
// transit provider that simultaneously degrades a random subset of the
// core segments incident to that site. These create (a) loss mass that
// probe-based routing can avoid by finding an unaffected intermediate and
// (b) occasional simultaneous degradation of direct and alternate paths.
struct ProviderEventParams {
  double events_per_site_day = 0.6;
  Duration mean_duration = Duration::minutes(15);
  // Target per-packet loss rate on affected segments while active.
  double event_loss_rate = 0.03;
  // Probability each incident core segment of the site is affected.
  double cross_fraction = 0.55;
};

struct NetConfig {
  // Access-link parameters by LinkClass (indexed by enum value).
  std::vector<ComponentParams> access;
  // Asymmetry: burst-rate factors applied to the up / down direction of
  // access links. Consumer (cable/DSL) uplinks are the congested side.
  double access_up_factor = 1.25;
  double access_down_factor = 0.9;
  double consumer_up_extra = 2.0;  // additional factor for kCableDsl up

  // Transit-provider ingress/egress component baseline (shared by every
  // core segment of a site; see topology.h). Section 2.4's shared-
  // infrastructure failures live here: they correlate losses across the
  // direct path and all one-hop alternates of a site, and no overlay
  // route avoids them.
  ComponentParams provider;
  // Rate multiplier for the provider components of consumer (cable/DSL)
  // and international sites, and for the Korea site specifically.
  double consumer_provider_factor = 2.0;
  double intl_provider_factor = 2.5;
  double korea_provider_factor = 3.0;

  // Core segment baseline.
  ComponentParams core;
  // Multiplier on core burst/episode/outage rates when either endpoint
  // site is international (transoceanic segments are lossier).
  double intl_core_rate_factor = 3.0;
  // Extra multiplier when either endpoint is the Korea site (the paper's
  // worst path, ~6% loss to a US DSL host).
  double korea_core_rate_factor = 6.0;

  // Global calibration multiplier on all burst arrival rates.
  double loss_scale = 1.0;

  ProviderEventParams provider_events;

  // Persistent per-core-segment quality factor: lognormal multiplier on
  // the segment's burst rate (heavy tail). This produces the chronically
  // lossy paths of Figure 2's tail and gives best-path routing stable,
  // re-findable alternatives - the "frequently sub-optimal" default routes
  // the paper's Section 2.2 describes.
  double core_quality_sigma = 0.6;
  double core_quality_max = 30.0;

  // Per-ordered-pair routing stretch of core propagation delay, lognormal
  // with this median and sigma (>= min). Stretch > 1 encodes non-geodesic
  // routing; its dispersion creates the triangle-inequality violations
  // that give latency-optimized overlay routing something to win.
  double core_stretch_median = 1.08;
  double core_stretch_sigma = 0.35;
  double core_stretch_min = 1.03;

  // Per-hop forwarding delay added at an intermediate overlay node.
  Duration forward_delay = Duration::micros(300);
  // Scheduled incidents (latency pathologies, loss storms).
  std::vector<Incident> incidents;

  // Resolved parameters for a component of the given topology (applies
  // class tables, up/down asymmetry, intl/Korea factors and loss_scale).
  [[nodiscard]] ComponentParams params_for(const Topology& topo, std::size_t component) const;

  // Calibrated profiles reproducing the paper's 2003 / 2002 conditions.
  // 2003: 30 nodes, 0.42% direct loss. 2002: 17 nodes, 0.74% direct loss,
  // lower cross-path loss correlation (Section 4.4). `run` scales the
  // incident schedule (Cornell pathology, worst-hour storm) into the run,
  // at the same relative positions as in the paper's 14-day window.
  [[nodiscard]] static NetConfig profile_2003(Duration run = Duration::days(14));
  [[nodiscard]] static NetConfig profile_2002(Duration run = Duration::days(14));
};

// Burst-rate diurnal modulation factor at a given UTC time for a site at
// the given longitude; peak in the site's local late afternoon.
[[nodiscard]] double diurnal_factor(TimePoint t, double lon_deg, double amplitude);

// Mean burst duration of the component's short/long mixture, seconds.
[[nodiscard]] double mean_burst_seconds(const ComponentParams& p);

// Burst-rate boost that makes the component's expected in-state loss rate
// equal `target_loss_rate`, given its quiet burst parameters.
[[nodiscard]] double derived_boost(const ComponentParams& p, double target_loss_rate);

}  // namespace ronpath

#endif  // RONPATH_NET_CONFIG_H_
