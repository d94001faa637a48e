// A fault-matrix cell with a snapshot identity and a report.
//
// SimWorld is core/cell_env.h's FaultCellRun — the same world, CBR send
// and FaultCell summary run_fault_cell runs to the end — plus what the
// snapshot and soak harness need around it: a fingerprint sealed into
// snapshot files, and a deterministic report the soak compares against
// an uninterrupted run. The run is explicit steps (advance_to /
// run_to_end) with checkpoints (save_state / restore_state) in between;
// CellRun describes the checkpoint layout and the restore discipline.
// A killed-and-restored run reports byte-identically to an
// uninterrupted one at any checkpoint cadence.

#ifndef RONPATH_SNAPSHOT_WORLD_H_
#define RONPATH_SNAPSHOT_WORLD_H_

#include <cstdint>
#include <string>

#include "core/cell_env.h"
#include "core/fault_matrix.h"

namespace ronpath {

class SimWorld : public FaultCellRun {
 public:
  // Throws std::runtime_error when the scenario DSL does not parse.
  // The scenario's strings are copied (see CellRun).
  SimWorld(const Scenario& scenario, FaultScheme scheme, const FaultMatrixConfig& cfg,
           std::uint64_t seed);

  // CBR progress: one send per cfg.send_interval over the measured window.
  [[nodiscard]] std::size_t total_sends() const { return total_steps(); }
  [[nodiscard]] std::size_t next_send() const { return next_step(); }

  // Identity of this world: the cell's identity (scenario, config and
  // seeds; CellRun::cell_fingerprint) plus the scheme and fault window.
  // Sealed into snapshot files so a snapshot cannot be restored into a
  // differently-configured world.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Deterministic text report: scenario identity, clock/event/net/probe
  // counters, a delivery-timeline hash, and (when finished) the cell
  // metrics. Byte-identical between an uninterrupted run and any
  // kill/restore schedule — the soak harness's ground truth.
  [[nodiscard]] std::string report() const;
};

}  // namespace ronpath

#endif  // RONPATH_SNAPSHOT_WORLD_H_
