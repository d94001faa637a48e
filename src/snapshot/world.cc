#include "snapshot/world.h"

#include <cstdio>

#include "snapshot/codec.h"

namespace ronpath {

SimWorld::SimWorld(const Scenario& scenario, FaultScheme scheme, const FaultMatrixConfig& cfg,
                   std::uint64_t seed)
    : FaultCellRun(scenario, scheme, cfg, seed) {}

std::uint64_t SimWorld::fingerprint() const {
  using snap::fnv1a_u64;
  std::uint64_t h = fnv1a_u64(static_cast<std::uint64_t>(scheme_), cell_fingerprint());
  h = fnv1a_u64(static_cast<std::uint64_t>(fault_start_.since_epoch().count_nanos()), h);
  return fnv1a_u64(static_cast<std::uint64_t>(fault_duration_.count_nanos()), h);
}

std::string SimWorld::report() const {
  char buf[256];
  std::string out;
  out += "== sim world ==\n";
  out += "scenario " + scenario_name() + " | scheme " + std::string(to_string(scheme_)) +
         " | seed " + std::to_string(seed()) + " | nodes " + std::to_string(env_.topo.size()) +
         "\n";
  std::snprintf(buf, sizeof buf, "clock %lldns | dispatched %llu | next-seq %llu",
                static_cast<long long>(env_.sched.now().since_epoch().count_nanos()),
                static_cast<unsigned long long>(env_.sched.dispatched_events()),
                static_cast<unsigned long long>(env_.sched.next_seq()));
  out += buf;
  out += " | sends " + std::to_string(next_step()) + "/" + std::to_string(total_steps()) + "\n";

  const Network::Stats& st = env_.net->stats();
  std::snprintf(buf, sizeof buf,
                "net: transmitted %lld | delivered %lld | drops random %lld burst %lld "
                "outage %lld injected %lld\n",
                static_cast<long long>(st.transmitted), static_cast<long long>(st.delivered),
                static_cast<long long>(st.dropped_random), static_cast<long long>(st.dropped_burst),
                static_cast<long long>(st.dropped_outage),
                static_cast<long long>(st.dropped_injected));
  out += buf;

  const std::vector<std::uint8_t> bits = snap::pack_bits(delivered_);
  std::uint64_t hash = snap::fnv1a(
      std::string_view(reinterpret_cast<const char*>(bits.data()), bits.size()));
  hash = snap::fnv1a_u64(delivered_.size(), hash);
  std::snprintf(buf, sizeof buf, "probes sent %lld | delivered-hash %016llx\n",
                static_cast<long long>(env_.overlay->probes_sent()),
                static_cast<unsigned long long>(hash));
  out += buf;

  if (finished()) {
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

}  // namespace ronpath
