// WorkloadWorld: one (scenario, policy) workload cell as a resumable
// simulation, the workload-layer analogue of snapshot/world.h's
// SimWorld.
//
// The underlay/overlay/fault machinery is the shared core/cell_env.h
// sequence; on top of it the world replays a pregenerated TrafficMatrix
// packet schedule (its own "workload" RNG fork, so the flow set is
// identical across policies) and scores every packet into per-class
// ClassMetrics. Three redundancy policies are compared:
//
//   kProbeOnly  every packet rides the loss-optimized best path (the
//               paper's pure reactive scheme);
//   kStatic2    every packet is duplicated on disjoint paths (the 2x
//               mesh scheme Figure 6 budgets for);
//   kAdaptive   the closed loop of workload/adaptive.h picks single /
//               FEC / duplicate per (pair, class) from measured loss.
//
// Access-link model: each source site owns a leaky bucket of
// spec.access_bytes_per_s; every copy (data, duplicate, FEC parity)
// drains it and the standing backlog is charged as queueing delay on
// top of the network one-way latency. That is the Figure 6 capacity
// limit enforced in the data plane: blind duplication of fat flows
// queues latency-sensitive classes past their SLO, which is exactly the
// effect the adaptive policy exists to avoid.
//
// FEC model (accounting-level, like every packet in this simulator):
// at level kFec a flow's data packets accumulate into blocks of up to
// fec_k shards on the primary path; at each block boundary m parity
// shards ride the disjoint detour (HybridSender::alternate_path). A
// lost data packet is recovered iff delivered shards >= block size, at
// the latency of the last delivered shard in the block.
//
// State keyed by the flows that exist: one loss EWMA per ordered pair
// that carries a flow (shared by its classes) and one controller per
// (pair, class) that carries a flow, in compact arrays numbered at
// construction. Each flow holds its two slots, so nothing grows with
// the n^2 pairs of a topology most of whose pairs stay idle.
//
// Lifecycle: a WorkloadWorld is a core/cell_env.h CellRun whose steps
// are the scheduled packets, so it shares SimWorld's warmup, cursor,
// drain, checkpoint header and tail, and layer audit. This class adds
// the packet schedule and the FEC, bucket, controller and metric state,
// checkpointed between the header and the tail.
//
// Determinism: a finished world is a pure function of (scenario,
// policy, config, seed) — byte-identical report at any --jobs,
// and snapshot kill/restore reproduces it exactly.

#ifndef RONPATH_WORKLOAD_WORLD_H_
#define RONPATH_WORKLOAD_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/cell_env.h"
#include "core/fault_matrix.h"
#include "measure/perceived.h"
#include "workload/adaptive.h"
#include "workload/spec.h"
#include "workload/traffic.h"

namespace ronpath {

enum class WorkloadPolicy : std::uint8_t { kProbeOnly = 0, kStatic2 = 1, kAdaptive = 2 };

[[nodiscard]] std::string_view to_string(WorkloadPolicy policy);
[[nodiscard]] std::span<const WorkloadPolicy> all_workload_policies();

struct WorkloadConfig {
  // Underlay / overlay / fault knobs (node_count, warmup, measured,
  // scale tier). send_interval and stable_streak are unused by
  // the workload layer.
  FaultMatrixConfig cell;
  WorkloadSpec spec;
  AdaptiveConfig adaptive;
};

class WorkloadWorld : public CellRun {
 public:
  // Throws std::runtime_error when the scenario DSL does not parse and
  // std::invalid_argument when the spec fails validation.
  WorkloadWorld(const Scenario& scenario, WorkloadPolicy policy, const WorkloadConfig& cfg,
                std::uint64_t seed);

  [[nodiscard]] std::size_t total_steps() const override { return schedule_.size(); }
  [[nodiscard]] std::size_t total_packets() const { return total_steps(); }
  [[nodiscard]] std::size_t next_packet() const { return next_step(); }

  [[nodiscard]] const PerClassMetrics& metrics() const { return metrics_; }
  // Copies sent per application packet (data + duplicates + parity).
  [[nodiscard]] double overhead_factor() const;
  // Total controller level transitions (flap-amplification bound).
  [[nodiscard]] std::int64_t transitions() const;
  [[nodiscard]] std::int64_t fec_blocks() const { return fec_blocks_; }
  [[nodiscard]] std::int64_t fec_recovered() const { return fec_recovered_; }

  // Identity sealed into snapshot files: the cell's identity (scenario,
  // cell config and seeds; CellRun::cell_fingerprint) plus the policy,
  // the full workload spec and the adaptive config.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Deterministic text report: progress, per-class table, overhead,
  // transitions, metric hash. Byte-identical between an uninterrupted
  // run and any kill/restore schedule.
  [[nodiscard]] std::string report() const;

  [[nodiscard]] const std::vector<Flow>& flows() const { return traffic_.flows(); }

 private:
  struct PacketEvent {
    TimePoint t;
    std::uint32_t flow = 0;
    std::int64_t index = 0;  // packet index within the flow
  };
  // A data shard waiting for its FEC block to resolve.
  struct PendingShard {
    TimePoint sent;
    TimePoint arrival;       // valid when delivered
    bool delivered = false;
  };
  struct FlowProgress {
    std::uint64_t burst_run = 0;       // current run of consecutive losses
    std::vector<PendingShard> block;   // open FEC block (kFec only)
    // The flow's slots in loss_est_ (its ordered pair) and ctrl_ (its
    // pair and class); fixed at construction, never snapshotted.
    std::uint32_t est_slot = 0;
    std::uint32_t ctrl_slot = 0;
    bool burst_flushed = false;        // end-of-flow flush happened
  };
  struct AccessBucket {
    double backlog_bytes = 0.0;
    TimePoint last;
  };

  [[nodiscard]] TimePoint step_time(std::size_t i) const override { return schedule_[i].t; }
  void step(std::size_t i, TimePoint t) override;
  void drain() override;
  void save_body(snap::Encoder& e) const override;
  void restore_body(snap::Decoder& d) override;
  void check_body(std::vector<std::string>& out) const override;
  // How one piece of restored or live state is impossible, or nullptr.
  [[nodiscard]] const char* flow_error(const FlowProgress& fp) const;
  [[nodiscard]] const char* bucket_error(const AccessBucket& b) const;

  // Charges `bytes` to src's access bucket at `t` and returns the
  // queueing delay this copy waits behind.
  Duration charge_access(NodeId src, double bytes, TimePoint t);
  // Scores one resolved data packet (metrics + burst run).
  void score_packet(const Flow& flow, FlowProgress& fp, bool delivered, Duration latency);
  // Sends parity and resolves the open block of `flow` at time `t`.
  void flush_block(std::uint32_t flow_idx, TimePoint t);
  // End-of-flow bookkeeping (close the burst run).
  void finish_flow(std::uint32_t flow_idx, TimePoint t);

  // Configuration (immutable after construction; the cell's own part
  // lives in CellRun).
  WorkloadPolicy policy_;
  WorkloadSpec spec_;
  AdaptiveConfig adaptive_;
  std::size_t nodes_ = 0;

  TrafficMatrix traffic_;
  std::vector<PacketEvent> schedule_;

  // Mutable progress state (all snapshotted).
  std::vector<FlowProgress> progress_;
  std::vector<AccessBucket> buckets_;        // per source site
  std::vector<double> loss_est_;             // per ordered pair with a flow
  std::vector<AdaptiveController> ctrl_;     // per (pair, class) with a flow
  PerClassMetrics metrics_;
  std::int64_t app_packets_ = 0;
  std::int64_t copies_ = 0;
  std::int64_t fec_blocks_ = 0;
  std::int64_t fec_recovered_ = 0;
};

}  // namespace ronpath

#endif  // RONPATH_WORKLOAD_WORLD_H_
