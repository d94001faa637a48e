// Identifiers shared across the ronpath libraries.

#ifndef RONPATH_UTIL_IDS_H_
#define RONPATH_UTIL_IDS_H_

#include <cstdint>

namespace ronpath {

// Overlay node identifier; dense index into the testbed host table.
using NodeId = std::uint16_t;
inline constexpr NodeId kInvalidNode = 0xFFFF;
// "via" value meaning a packet takes the direct Internet path.
inline constexpr NodeId kDirectVia = 0xFFFE;

// An overlay path through at most one intermediate: direct when via ==
// kDirectVia, else src -> via -> dst. The paper's reactive router
// considers at most one intermediate ("a generalized scheme would also
// need to choose the sets of nodes"); bench_ablation_two_hop sends its
// two-relay paths as a one-relay transmit chained to a direct one.
struct PathSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  NodeId via = kDirectVia;

  [[nodiscard]] constexpr bool is_direct() const { return via == kDirectVia; }
  // Number of overlay forwarding hops (0 or 1).
  [[nodiscard]] constexpr int intermediates() const { return is_direct() ? 0 : 1; }
  friend constexpr bool operator==(const PathSpec&, const PathSpec&) = default;
};

}  // namespace ronpath

#endif  // RONPATH_UTIL_IDS_H_
