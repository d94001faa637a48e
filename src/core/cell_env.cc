#include "core/cell_env.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "net/config.h"
#include "net/scale_topology.h"

namespace ronpath {
namespace {

Topology cell_topology(const FaultMatrixConfig& cfg) {
  if (cfg.synth_nodes > 0) {
    ScaleTopologyParams params;
    params.nodes = cfg.synth_nodes;
    params.seed = cfg.seed;
    return scale_topology(params);
  }
  Topology t = testbed_2003();
  assert(cfg.node_count >= 2);
  if (cfg.node_count < t.size()) {
    std::vector<Site> subset(t.sites().begin(),
                             t.sites().begin() + static_cast<long>(cfg.node_count));
    t = Topology(std::move(subset));
  }
  return t;
}

}  // namespace

CellEnv::CellEnv(const Scenario& scenario, HybridMode mode, const FaultMatrixConfig& cfg,
                 std::uint64_t seed)
    : topo(cell_topology(cfg)) {
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
  if (cfg.graceful_degradation) {
    // Entries expire after five missed publications; flapping vias serve
    // a doubling hold-down starting at two probe intervals.
    ocfg.router.entry_ttl = ocfg.probe_interval * 5;
    ocfg.router.holddown_base = ocfg.probe_interval * 2;
  }
  overlay.emplace(*net, sched, ocfg, rng.fork("overlay"));
  overlay->set_fault_injector(&*injector);
  overlay->start();

  HybridConfig hcfg;
  hcfg.mode = mode;
  sender.emplace(*overlay, hcfg, rng.fork("hybrid"));
}

}  // namespace ronpath
