// The world of one cell and the run it goes through.
//
// A cell is one (fault scenario, routing scheme or redundancy policy)
// run as its own simulation. Two kinds exist: the fault-matrix cell, a
// CBR flow (FaultCellRun below; run_fault_cell runs one to the end and
// snapshot/world.h's SimWorld is one with a snapshot identity and a
// report), and the workload cell, a traffic matrix (workload/world.h's
// WorkloadWorld).
//
// CellEnv is their construction sequence. It must be *identical* for
// every cell — same topology derivation, same RNG fork order ("net",
// "overlay", "hybrid"), same overlay knobs — or fixed-seed outputs
// drift apart. Member order doubles as teardown order (reverse
// declaration): sender -> overlay -> net -> sched -> injector -> topo.
//
// CellRun is the lifecycle every cell shares: the warmup runs on the
// first advance, a cursor walks the measured phase's steps (CBR sends
// or scheduled packets) in time order, and the final drain runs the
// scheduler to the end of the run. It also frames the checkpoint — the
// header (world tag, warmed, drained, cursor), the world's own state,
// then the tail (scheduler clock, net, overlay, sender) — and audits
// the shared layers and the progress flags. Pending events are
// closures, so each owner saves (at, seq) re-arm descriptors (see
// event/scheduler.h); restore resets the clock before the owners re-arm
// them, so a killed-and-restored run fires in the original order and
// reports byte-identically to an uninterrupted one. CellRun keeps the
// cell's construction arguments (scenario name and DSL, world seed,
// FaultMatrixConfig) and hashes them into the identity every world's
// snapshot fingerprint starts from.

#ifndef RONPATH_CORE_CELL_ENV_H_
#define RONPATH_CORE_CELL_ENV_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_matrix.h"
#include "event/scheduler.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "routing/hybrid.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

// The sites a run simulates: a synthetic hierarchical underlay of
// `synth_nodes` sites seeded by `seed` when synth_nodes > 0, else the
// first `node_count` hosts of `testbed` (all of them when unset).
[[nodiscard]] Topology select_topology(Topology testbed, std::optional<std::size_t> node_count,
                                       std::size_t synth_nodes, std::uint64_t seed);

// Turns on the router's graceful degradation (DESIGN.md §9): entries
// expire after five missed publications, and flapping vias serve a
// doubling hold-down starting at two probe intervals.
void enable_graceful_degradation(OverlayConfig& cfg);

struct CellEnv {
  // Builds the world in run_fault_cell's historical order. Throws
  // std::runtime_error when the scenario DSL does not parse.
  // `mode` picks the HybridSender policy; the sender is constructed
  // (and its RNG stream forked) in every mode so schemes that never
  // touch it still see identical randomness everywhere else.
  CellEnv(const Scenario& scenario, HybridMode mode, const FaultMatrixConfig& cfg,
          std::uint64_t seed);

  Topology topo;
  std::optional<FaultInjector> injector;
  Scheduler sched;
  std::optional<Network> net;
  std::optional<OverlayNetwork> overlay;
  std::optional<HybridSender> sender;
};

class CellRun {
 public:
  virtual ~CellRun() = default;
  CellRun(const CellRun&) = delete;
  CellRun& operator=(const CellRun&) = delete;

  // Measured-phase progress: the number of steps, and how many have run.
  [[nodiscard]] virtual std::size_t total_steps() const = 0;
  [[nodiscard]] std::size_t next_step() const { return next_step_; }
  [[nodiscard]] bool finished() const { return drained_; }

  // Runs forward until `step` steps have run (clamped to total_steps()).
  // The warmup runs on the first call.
  void advance_to(std::size_t step);
  // Runs every step, then drains the scheduler to the end of the run.
  void run_to_end();

  // Serializes / overwrites all mutable state. restore_state expects a
  // freshly constructed world with the same constructor arguments and
  // throws snap::SnapshotError on corruption, on a mismatch, and on
  // progress no run can reach (steps or a drain before the warmup, a
  // drain before the last step).
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Appends one message per violated invariant across every layer
  // (scheduler, net, overlay, sender), the progress flags and the
  // world's own state; empty means clean.
  void check_invariants(std::vector<std::string>& out) const;

  [[nodiscard]] Scheduler& scheduler() { return env_.sched; }
  // Read-only views for benches and tests.
  [[nodiscard]] const OverlayNetwork& overlay() const { return *env_.overlay; }
  [[nodiscard]] const Network& network() const { return *env_.net; }

 protected:
  // `tag` names the world's checkpoint section. The scenario's strings
  // are copied, so callers may pass synthesized schedules with transient
  // backing storage (the soak harness does).
  CellRun(const Scenario& scenario, HybridMode mode, const FaultMatrixConfig& cfg,
          std::uint64_t seed, const char (&tag)[5]);

  [[nodiscard]] TimePoint measure_start() const { return measure_start_; }
  [[nodiscard]] TimePoint end_time() const { return end_; }
  [[nodiscard]] const std::string& scenario_name() const { return scenario_name_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const FaultMatrixConfig& config() const { return cfg_; }
  // FNV-1a over the scenario name and DSL, the world seed and every
  // FaultMatrixConfig field (the topology seed cfg.seed included). Each
  // world's fingerprint() extends it with its own fields.
  [[nodiscard]] std::uint64_t cell_fingerprint() const;

  CellEnv env_;

 private:
  // The world's part: step i's send time and the send itself, its work
  // after the final drain, its checkpoint state (between the header and
  // the tail) and its own invariants.
  [[nodiscard]] virtual TimePoint step_time(std::size_t i) const = 0;
  virtual void step(std::size_t i, TimePoint t) = 0;
  virtual void drain() {}
  virtual void save_body(snap::Encoder& e) const = 0;
  virtual void restore_body(snap::Decoder& d) = 0;
  virtual void check_body(std::vector<std::string>& out) const = 0;

  // How the progress flags contradict the cursor (steps or a drain
  // before the warmup, a drain before the last step), or nullptr.
  [[nodiscard]] const char* progress_error() const;

  const char (&tag_)[5];
  std::string scenario_name_;
  std::string dsl_;
  std::uint64_t seed_;
  FaultMatrixConfig cfg_;
  TimePoint measure_start_;
  TimePoint end_;
  std::size_t next_step_ = 0;
  bool warmed_ = false;
  bool drained_ = false;
};

// The fault-matrix cell: a CBR flow src 0 -> dst 1 under `scheme`, one
// send per cfg.send_interval over the measured window. Its own state is
// the delivery timeline.
class FaultCellRun : public CellRun {
 public:
  // Throws std::runtime_error when the scenario DSL does not parse.
  FaultCellRun(const Scenario& scenario, FaultScheme scheme, const FaultMatrixConfig& cfg,
               std::uint64_t seed);

  [[nodiscard]] std::size_t total_steps() const override;
  // The finished run's per-phase loss rates, failover/recovery times and
  // accounting (see core/fault_matrix.h).
  [[nodiscard]] FaultCell cell() const;

 protected:
  FaultScheme scheme_;
  TimePoint fault_start_;
  Duration fault_duration_;
  std::vector<bool> delivered_;  // one entry per send

 private:
  [[nodiscard]] TimePoint step_time(std::size_t i) const override;
  void step(std::size_t i, TimePoint t) override;
  void save_body(snap::Encoder& e) const override;
  void restore_body(snap::Decoder& d) override;
  void check_body(std::vector<std::string>& out) const override;
};

}  // namespace ronpath

#endif  // RONPATH_CORE_CELL_ENV_H_
