// Runtime invariant audit report for the snapshot/soak subsystem.
//
// CellRun::check_invariants (core/cell_env.h) runs every layer's
// check_invariants() over a cell — SimWorld or WorkloadWorld — and
// collects one message per violation. The audited invariants (see
// DESIGN.md, "Snapshot & soak"):
//
//   scheduler  - heap property holds; no entry behind the clock; slot /
//                generation consistency; sequence numbers below next_seq
//   net        - loss-process interval rings sorted/merged/non-empty;
//                roughly-monotone cursors never behind their prune
//                watermark; drop statistics conserve transmitted packets
//   overlay    - estimator windows bounded with consistent loss counts;
//                latency estimates outside the saturating-arithmetic
//                dead zone; link-state entries never published in the
//                future; hold-down strikes in [0,20] with bans bounded
//                by holddown_max; incumbent paths well-formed
//   routing    - hybrid overhead counters conserve (copies = packets +
//                duplications)
//   progress   - cursor within the run; no step or drain before the
//                warmup; no drain before the last step
//   world      - SimWorld: delivery timeline length matches the cursor;
//                WorkloadWorld: controllers and class metrics well
//                formed, scored + pending packets match the cursor
//
// format_audit turns the messages into one pass/fail verdict.

#ifndef RONPATH_SNAPSHOT_AUDIT_H_
#define RONPATH_SNAPSHOT_AUDIT_H_

#include <string>
#include <vector>

namespace ronpath {

// Human-readable audit summary ("audit clean" or a numbered list).
[[nodiscard]] std::string format_audit(const std::vector<std::string>& violations);

}  // namespace ronpath

#endif  // RONPATH_SNAPSHOT_AUDIT_H_
