// Experiment runner: reproduces the paper's three datasets (Table 3).
//
//   RON2003   - 30 hosts, 2003 profile, one-way probes, six probe sets
//               (direct/lat rows inferred from first copies);
//   RONwide   - 17 hosts, 2002 profile, round-trip probes, the expanded
//               12-method set of Table 7;
//   RONnarrow - 17 hosts, 2002 profile, one-way probes, the three most
//               promising methods.
//
// A run wires together: the testbed topology, the calibrated underlay
// profile, the overlay (RON-style probing + routing), the measurement
// probe driver, and the streaming aggregator; it returns the finished
// aggregator from which every table and figure is extracted.

#ifndef RONPATH_CORE_EXPERIMENT_H_
#define RONPATH_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "measure/aggregator.h"
#include "net/network.h"

namespace ronpath {

enum class Dataset {
  kRon2003,
  kRonWide,
  kRonNarrow,
};

[[nodiscard]] std::string_view to_string(Dataset d);

struct ExperimentConfig {
  Dataset dataset = Dataset::kRon2003;
  // Measured duration after warm-up. The paper's RON2003 spans 14 days;
  // benches default shorter and accept a --days flag.
  Duration duration = Duration::days(2);
  // Overlay probing warm-up before records count (the loss window needs
  // ~100 probes at 15 s).
  Duration warmup = Duration::minutes(40);
  std::uint64_t seed = 42;
  // Optional underlay overrides for calibration/ablation.
  std::optional<double> loss_scale;
  std::optional<Duration> probe_interval;
  // Score link loss with an EWMA instead of the paper's last-100 window.
  bool use_ewma_loss = false;
  // Use only the first N testbed hosts (overlay size scaling ablation).
  std::optional<std::size_t> node_count;
  // When set, every probe record is streamed to this file (rondata
  // format; see tools/rondata.cc).
  std::string record_path;
  // Optional scripted fault schedule (fault DSL text; see src/fault/),
  // overlaid on the run via a FaultInjector. Invalid DSL throws.
  std::string fault_dsl;
  // Enables the router's staleness expiry + hold-down knobs (DESIGN.md,
  // "Fault model"); off reproduces the trust-forever control plane.
  bool graceful_degradation = false;

  // --- scaling (DESIGN.md §14) ---
  // > 0: replace the testbed topology with a synthetic hierarchical
  // underlay of this many sites (net/scale_topology.h, seeded by `seed`).
  // Ignores node_count.
  std::size_t synth_nodes = 0;
  // > 0: bandwidth-capped overlay (k-nearest neighbor graph, rotated
  // announcements, landmark alternates). 0 keeps the full mesh.
  std::size_t overlay_fanout = 0;
  std::size_t overlay_landmarks = 8;
};

struct ExperimentResult {
  std::unique_ptr<Aggregator> agg;  // finished
  Topology topology;
  Network::Stats net_stats;
  std::int64_t probes = 0;
  std::int64_t overlay_probes = 0;
  std::uint64_t events = 0;
  Duration measured;  // duration excluding warm-up
};

[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace ronpath

#endif  // RONPATH_CORE_EXPERIMENT_H_
