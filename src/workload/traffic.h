// Deterministic traffic-matrix generation.
//
// Expands a WorkloadSpec into the concrete flow list for one simulated
// window: per ordered site pair (s, d), flow starts follow a
// non-homogeneous Poisson process whose rate is the product of the two
// sites' diurnal activity factors (thinning against the pair's peak
// rate), each flow drawing a service class from the mix and a
// shifted-exponential packet count. Within a flow, packets are CBR at
// the class rate.
//
// Determinism and stability: every pair owns its own RNG stream,
// fork(pair_key) off a single workload root, so the generated flow set
// is a pure function of (spec, node count, window, root stream) —
// independent of pair iteration order and thread count.
// The byte-stability tests pin exactly this. The final flow list is
// sorted by (start, src, dst, per-pair sequence), a total order with no
// ties across pairs.

#ifndef RONPATH_WORKLOAD_TRAFFIC_H_
#define RONPATH_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/time.h"
#include "workload/spec.h"

namespace ronpath {

struct Flow {
  ServiceClass cls = ServiceClass::kWeb;
  NodeId src = 0;
  NodeId dst = 0;
  TimePoint start;
  std::int64_t packets = 1;
  Duration interval;  // 1 / class rate

  // Send time of packet i (CBR within the flow).
  [[nodiscard]] TimePoint packet_time(std::int64_t i) const { return start + interval * i; }
};

// The diurnal activity factor for `site` at `t`, in [trough, 1]
// (cosine bump peaked at spec.peak_hour local time; the epoch is local
// midnight at site 0 and each site index lags by tz_spread_hours).
[[nodiscard]] double diurnal_factor(const WorkloadSpec& spec, NodeId site, TimePoint t);

class TrafficMatrix {
 public:
  // Generates flows starting in [start, end). `root` should be the
  // world's Rng(seed).fork("workload") so the generator never perturbs
  // (or is perturbed by) the underlay/overlay streams.
  TrafficMatrix(const WorkloadSpec& spec, std::size_t node_count, TimePoint start, TimePoint end,
                const Rng& root);

  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] std::int64_t total_packets() const { return total_packets_; }

 private:
  std::vector<Flow> flows_;
  std::int64_t total_packets_ = 0;
};

}  // namespace ronpath

#endif  // RONPATH_WORKLOAD_TRAFFIC_H_
