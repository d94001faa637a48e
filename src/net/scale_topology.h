// Seeded synthetic topology generator for the scaling tiers.
//
// The 2003 testbed stops at 30 hand-placed hosts; growing the overlay to
// 1k-10k nodes needs an underlay with the same delay/loss *structure* at
// arbitrary size. The generator is hierarchical — sites live in metros
// (a fixed table of ~40 world metro areas with real coordinates), metros
// contain a few providers, and each site gets a per-site seeded fork for
// its coordinate jitter and access-link class — so propagation delays
// cluster the way real deployments do (sub-ms within a metro, tens of ms
// across a continent, >100 ms transoceanic) and the LinkClass mix keeps
// NetConfig::params_for's per-class loss calibration meaningful.
//
// Determinism: the generated site list is a pure function of
// ScaleTopologyParams (per-site forks, no draw-order coupling between
// sites), so the same params give byte-identical topologies across runs
// and restores. Names are synthetic ("m03-p1-s0007") and
// never collide with testbed names — in particular never "Korea", which
// NetConfig matches by exact name.

#ifndef RONPATH_NET_SCALE_TOPOLOGY_H_
#define RONPATH_NET_SCALE_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>

#include "net/topology.h"

namespace ronpath {

struct ScaleTopologyParams {
  std::size_t nodes = 300;
  std::uint64_t seed = 1;
  // Metro areas drawn from the fixed world table; 0 derives
  // clamp(nodes / 12, 4, table size) so density grows with the tier.
  std::size_t metros = 0;
  // Providers per metro (naming + placement granularity).
  std::size_t providers_per_metro = 3;
};

// Builds a synthetic hierarchical topology. Requires nodes >= 2.
[[nodiscard]] Topology scale_topology(const ScaleTopologyParams& params);

}  // namespace ronpath

#endif  // RONPATH_NET_SCALE_TOPOLOGY_H_
