// Shared construction of a single-cell simulated world.
//
// Three consumers run "one (scenario, scheme) cell as its own fresh
// simulation": core/fault_matrix.cc's run_fault_cell, the resumable
// snapshot/world.h SimWorld, and the workload layer's WorkloadWorld.
// Their construction sequences must be *identical* — same topology
// derivation, same RNG fork order ("net", "overlay", "hybrid"), same
// overlay knobs — or fixed-seed outputs drift apart. CellEnv is that
// sequence, extracted once; the differential tests that previously
// pinned run_fault_cell against SimWorld now pin a single code path.
//
// Member order doubles as teardown order (reverse declaration):
// sender -> overlay -> net -> sched -> injector -> topo.

#ifndef RONPATH_CORE_CELL_ENV_H_
#define RONPATH_CORE_CELL_ENV_H_

#include <cstdint>
#include <optional>

#include "core/fault_matrix.h"
#include "event/scheduler.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "routing/hybrid.h"

namespace ronpath {

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

}  // namespace ronpath

#endif  // RONPATH_CORE_CELL_ENV_H_
