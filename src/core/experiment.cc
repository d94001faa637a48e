#include "core/experiment.h"

#include <fstream>
#include <stdexcept>

#include "core/cell_env.h"
#include "core/driver.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "fault/injector.h"
#include "net/config.h"
#include "overlay/overlay.h"
#include "routing/schemes.h"

namespace ronpath {

std::string_view to_string(Dataset d) {
  switch (d) {
    case Dataset::kRon2003: return "RON2003";
    case Dataset::kRonWide: return "RONwide";
    case Dataset::kRonNarrow: return "RONnarrow";
  }
  return "?";
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const bool is_2003 = cfg.dataset == Dataset::kRon2003;
  Topology topo = select_topology(is_2003 ? testbed_2003() : testbed_2002(), cfg.node_count,
                                  cfg.synth_nodes, cfg.seed);
  const Duration run_span = cfg.warmup + cfg.duration;
  NetConfig net_cfg =
      is_2003 ? NetConfig::profile_2003(run_span) : NetConfig::profile_2002(run_span);
  if (cfg.loss_scale) net_cfg.loss_scale *= *cfg.loss_scale;

  Rng rng(cfg.seed);
  Scheduler sched;
  const Duration horizon = cfg.warmup + cfg.duration + Duration::hours(1);
  Network net(topo, net_cfg, horizon, rng.fork("net"));

  OverlayConfig overlay_cfg;
  overlay_cfg.router.forward_delay = net_cfg.forward_delay;
  if (cfg.probe_interval) overlay_cfg.probe_interval = *cfg.probe_interval;
  overlay_cfg.use_ewma_loss = cfg.use_ewma_loss;
  overlay_cfg.fanout = cfg.overlay_fanout;
  overlay_cfg.landmarks = cfg.overlay_landmarks;
  if (cfg.graceful_degradation) enable_graceful_degradation(overlay_cfg);
  OverlayNetwork overlay(net, sched, overlay_cfg, rng.fork("overlay"));
  std::unique_ptr<FaultInjector> injector;
  if (!cfg.fault_dsl.empty()) {
    std::string parse_error;
    const auto schedule = FaultSchedule::parse(cfg.fault_dsl, &parse_error);
    if (!schedule) throw std::runtime_error("fault schedule: " + parse_error);
    injector = std::make_unique<FaultInjector>(*schedule, topo, horizon);
    overlay.set_fault_injector(injector.get());
  }
  overlay.start();

  DriverConfig driver_cfg;
  switch (cfg.dataset) {
    case Dataset::kRon2003: {
      const auto set = ron2003_probe_set();
      driver_cfg.probe_set.assign(set.begin(), set.end());
      driver_cfg.round_trip = false;
      break;
    }
    case Dataset::kRonWide: {
      const auto set = ronwide_probe_set();
      driver_cfg.probe_set.assign(set.begin(), set.end());
      driver_cfg.round_trip = true;
      break;
    }
    case Dataset::kRonNarrow: {
      const auto set = ronnarrow_probe_set();
      driver_cfg.probe_set.assign(set.begin(), set.end());
      driver_cfg.round_trip = false;
      break;
    }
  }

  AggregatorConfig agg_cfg;
  agg_cfg.measure_start = TimePoint::epoch() + cfg.warmup;
  agg_cfg.round_trip = driver_cfg.round_trip;
  auto agg = std::make_unique<Aggregator>(topo.size(), driver_cfg.probe_set, agg_cfg);

  std::ofstream record_file;
  std::unique_ptr<RecordStreamWriter> record_writer;
  if (!cfg.record_path.empty()) {
    record_file.open(cfg.record_path, std::ios::binary);
    record_writer = std::make_unique<RecordStreamWriter>(record_file);
    driver_cfg.record_tee = [&w = *record_writer](const ProbeRecord& rec) { w.add(rec); };
  }

  ProbeDriver driver(overlay, sched, *agg, driver_cfg, rng.fork("driver"));
  driver.start();

  const TimePoint end = TimePoint::epoch() + cfg.warmup + cfg.duration;
  sched.run_until(end);
  agg->finish(end);

  return ExperimentResult{std::move(agg),          std::move(topo),
                          net.stats(),             driver.probes_emitted(),
                          overlay.probes_sent(),   sched.dispatched_events(),
                          cfg.duration};
}

}  // namespace ronpath
