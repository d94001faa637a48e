// Hybrid reactive + redundant routing (the paper's Sections 5.3 and 6).
//
// The paper frames application design as allocating a bandwidth budget
// between probing and duplication, and closes by asking "what
// combinations of these methods prove to be sweet spots". This module
// implements that exploration as a library policy:
//
//   kBestPath       - always send one copy on the loss-optimized path
//                     (pure reactive; overhead 1x + probing).
//   kAlwaysDuplicate- always send two copies: loss-optimized + disjoint
//                     alternate (pure mesh on selected paths; 2x).
//   kAdaptive       - duplicate only when the routing state says it is
//                     worth it: the best path's loss estimate exceeds
//                     `duplicate_threshold`, or the destination's links
//                     look unstable (recent down flags). Overhead floats
//                     between 1x and 2x with network conditions, which is
//                     exactly the knob Figure 6's capacity limits are
//                     about.
//
// The second copy avoids the first copy's intermediate (and the direct
// path if the first copy is direct), maximizing component disjointness
// under the one-hop constraint. Its relay is the best by raw composed
// loss over every node, not just the endpoint rows the router uses, and
// it trusts entries forever. A never-published entry therefore reads as
// zero loss, so over a capped graph the pick is the lowest live id whose
// two legs both read zero loss, in practice one adjacent to neither
// endpoint (survival exactly 1.0 ends the path engine's scan there).
// The pinned checksums include this choice; ROADMAP tracks it as a
// defect.

#ifndef RONPATH_ROUTING_HYBRID_H_
#define RONPATH_ROUTING_HYBRID_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "overlay/overlay.h"
#include "routing/multipath.h"
#include "util/rng.h"

namespace ronpath {

class PathEngine;

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

enum class HybridMode : std::uint8_t {
  kBestPath,
  kAlwaysDuplicate,
  kAdaptive,
};

[[nodiscard]] std::string_view to_string(HybridMode mode);

struct HybridConfig {
  HybridMode mode = HybridMode::kAdaptive;
  // Adaptive: duplicate when the chosen path's composed loss estimate is
  // at or above this.
  double duplicate_threshold = 0.01;
  // Adaptive: also duplicate when any link of the chosen path is flagged
  // down (an outage is in progress; the estimate lags).
  bool duplicate_on_down = true;
};

struct HybridOutcome {
  ProbeOutcome probe;       // copies actually sent (1 or 2)
  bool duplicated = false;  // second copy was sent

  [[nodiscard]] bool delivered() const { return probe.any_delivered(); }
};

class HybridSender {
 public:
  HybridSender(OverlayNetwork& overlay, HybridConfig cfg, Rng rng);
  ~HybridSender();  // out of line: PathEngine is incomplete here

  // Sends one application packet from src to dst at `now` under the
  // configured policy.
  HybridOutcome send(NodeId src, NodeId dst, TimePoint now);

  // Overhead accounting: copies sent per application packet so far.
  [[nodiscard]] double overhead_factor() const;
  [[nodiscard]] std::int64_t packets() const { return packets_; }
  [[nodiscard]] std::int64_t copies() const { return copies_; }
  [[nodiscard]] std::int64_t duplicated() const { return duplicated_; }

  // Snapshot support: RNG stream and overhead counters (the alternate
  // path engine holds no state).
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: counter consistency (copies bounded by 1x..2x of
  // packets, duplications never exceed packets).
  void check_invariants(std::vector<std::string>& out) const;

  // Chooses the alternate path for the second copy: best disjoint via,
  // one ascending path-engine scan over all nodes. Public so the
  // workload layer's FEC mode can route parity shards on the same
  // detour a duplicate would take (shared disjointness logic).
  [[nodiscard]] PathSpec alternate_path(NodeId src, NodeId dst, const PathSpec& primary);

 private:

  OverlayNetwork& overlay_;
  HybridConfig cfg_;
  Rng rng_;
  // Alternate-path selection runs on the shared path engine with a
  // penalty-free, trust-forever view (raw composed loss, no
  // indirect-path handicap: the second copy exists for disjointness,
  // not because it looks better than the primary). Declared before the
  // engine, which holds a reference to it.
  RouterConfig alt_cfg_;
  std::unique_ptr<PathEngine> alt_engine_;
  std::int64_t packets_ = 0;
  std::int64_t copies_ = 0;
  std::int64_t duplicated_ = 0;
};

}  // namespace ronpath

#endif  // RONPATH_ROUTING_HYBRID_H_
