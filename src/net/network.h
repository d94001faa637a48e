// The simulated underlay: delivers packets over one-hop overlay paths with
// loss and latency drawn from the composed per-component processes.
//
// This is the substitute for the paper's physical 30-node RON testbed.
// transmit() walks the components of a path in traversal order and samples
// each component's state at the instant the packet reaches it. Because
// component state is a deterministic timeline, two packets traversing a
// shared component at (nearly) the same moment share burst fate - the
// mechanism behind the paper's correlated-loss findings - while spacing
// packets in time (dd 10 ms / dd 20 ms) or routing the second copy around
// a component de-correlates them exactly as in Section 4.4.
//
// Components, site and core alike, are built on their first traversal
// from construction forks keyed by component index, so the result never
// depends on build order. A capped overlay touches a small fraction of
// the n*(n-1) core grid and pays only for that fraction: the 4n site
// records sit in a dense per-site array, and the built core segments in
// a flat open-addressing index keyed by component id, so no table grows
// with the n^2 id space.

#ifndef RONPATH_NET_NETWORK_H_
#define RONPATH_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/config.h"
#include "net/loss_process.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace ronpath {

enum class DropCause : std::uint8_t {
  kNone = 0,      // delivered
  kRandom = 1,    // independent per-packet loss
  kBurst = 2,     // loss burst (queue overflow)
  kOutage = 3,    // total component outage
  kInjected = 4,  // scripted fault (see fault/injector.h)
};

[[nodiscard]] std::string_view to_string(DropCause cause);

// Class of traffic a transmit() call carries. Control probes are the
// overlay's 15 s path-quality probes; everything else (application data,
// measurement probes) is data. Scripted probe-blackhole faults kill
// control probes while leaving the data plane intact, poisoning the
// estimator state without an underlying path failure.
enum class TrafficClass : std::uint8_t {
  kData = 0,
  kProbe = 1,
};

// Injection interface for scripted faults. The concrete implementation
// lives in fault/injector.h (the fault library depends on net, not the
// other way around). All queries must be deterministic pure functions of
// (fault schedule, time): the injector is part of the seed-stable state.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  // Packets traversing `component` at time t are forcibly dropped.
  [[nodiscard]] virtual bool component_down(std::size_t component, TimePoint t) const = 0;
  // Control probes with `node` as an endpoint are blackholed at time t.
  [[nodiscard]] virtual bool probe_blackhole(NodeId node, TimePoint t) const = 0;
};

struct TransmitResult {
  bool delivered = false;
  // One-way latency; valid only when delivered.
  Duration latency;
  DropCause cause = DropCause::kNone;
  // Component index where the packet was dropped (when not delivered).
  std::size_t drop_component = 0;

  [[nodiscard]] bool lost() const { return !delivered; }
};

class Network {
 public:
  // `horizon` bounds the run; provider events are pregenerated up to it.
  Network(Topology topology, NetConfig config, Duration horizon, Rng rng);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] const NetConfig& config() const { return config_; }

  // Sends one packet along `path` at `send_time`. Queries must be roughly
  // monotone in time (see loss_process.h): a debug build asserts when a
  // send lags the furthest send by more than kQuerySafety; a release
  // build clamps the query forward to the safety watermark instead of
  // silently reading pruned (wrong) component state.
  TransmitResult transmit(const PathSpec& path, TimePoint send_time,
                          TrafficClass cls = TrafficClass::kData);

  // Installs (or clears, with nullptr) the scripted fault injector. The
  // hook must outlive the network or be cleared before destruction.
  void set_fault_hook(const FaultHook* hook) { fault_ = hook; }

  // Deterministic latency floor of a path (propagation + fixed delays +
  // forwarding, no jitter/queueing/incidents). Used by tests and by
  // latency-model sanity checks.
  [[nodiscard]] Duration base_latency(const PathSpec& path) const;

  // Routing stretch factor applied to the core segment src->dst; a pure
  // function of the segment's keyed fork.
  [[nodiscard]] double core_stretch(NodeId src, NodeId dst) const;

  // Aggregate drop statistics since construction.
  struct Stats {
    std::int64_t transmitted = 0;
    std::int64_t delivered = 0;
    std::int64_t dropped_random = 0;
    std::int64_t dropped_burst = 0;
    std::int64_t dropped_outage = 0;
    std::int64_t dropped_injected = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Test hook: the process driving a component's loss state (built first
  // if no packet has traversed it yet).
  [[nodiscard]] ComponentProcess& component(std::size_t index) {
    return component_at(index).proc;
  }
  [[nodiscard]] std::size_t component_count() const { return topo_.component_count(); }
  // Components built so far: those some packet (or the test hook) has
  // traversed, a small fraction of the n*(n-1) core grid on a capped
  // overlay.
  [[nodiscard]] std::size_t materialized_components() const { return built_; }

  // Snapshot support: serializes the mutable state (the built
  // components' timelines, packet Rng, drop statistics, monotonicity
  // watermark). Everything else is derived from the ctor arguments, so
  // restore_state expects a Network constructed identically.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: per-component timeline invariants plus stats
  // conservation (every transmit delivered or charged to one drop cause).
  void check_invariants(std::vector<std::string>& out) const;

 private:
  struct LatencyAddition {
    TimePoint start;
    TimePoint end;
    Duration added;
  };
  struct SiteEvent {
    TimePoint start;
    TimePoint end;
    std::uint64_t seq;
  };

  // One underlay component: its loss process plus the constants read on
  // every hop, resolved once at construction so the packet loop never
  // recomputes great-circle trig, stretch draws or log(jitter_median).
  // Values are bit-identical to evaluating the source expressions in
  // place. The constants come first, in the record's first cache line.
  struct Component {
    Duration fixed_delay;
    Duration stretched_prop;  // core: propagation * stretch; site: zero
    double ln_jitter_median = 0.0;
    double jitter_sigma = 0.0;
    std::vector<LatencyAddition> additions;  // incident latency windows
    ComponentProcess proc;
  };

  // The built core segments, keyed by component id: a flat
  // open-addressing table with power-of-two capacity and linear probing,
  // grown at half load. A lookup is one multiply, one shift and usually
  // one probe; slots own their records, so an entry allocates nothing
  // beyond its record.
  class CoreIndex {
   public:
    explicit CoreIndex(std::size_t capacity);

    [[nodiscard]] Component* find(std::size_t ci) const {
      for (std::size_t i = home(ci);; i = (i + 1) & mask_) {
        const Slot& s = slots_[i];
        if (s.id == ci) return s.rec.get();
        if (!s.rec) return nullptr;
      }
    }
    // Adds `ci`, which must not be present yet.
    Component& insert(std::size_t ci, std::unique_ptr<Component> rec);
    // Drops every record and keeps the capacity.
    void clear();
    // Appends the present (id, record) pairs in ascending id order.
    void append_sorted(std::vector<std::pair<std::size_t, const Component*>>& out) const;

   private:
    // An empty slot holds id 0, which is a site id and never a core's.
    struct Slot {
      std::size_t id = 0;
      std::unique_ptr<Component> rec;
    };
    [[nodiscard]] std::size_t home(std::size_t ci) const {
      return static_cast<std::size_t>((ci * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void place(Slot slot);

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t size_ = 0;
  };

  // Returns component `ci`, building it on first use.
  [[nodiscard]] Component& component_at(std::size_t ci) {
    Component* c = ci < sites_.size() ? sites_[ci].get() : cores_.find(ci);
    if (!c) [[unlikely]] c = &build(ci);
    return *c;
  }
  // Builds component `ci` from its keyed construction forks and files it.
  // Every draw is keyed by component index, so the result does not
  // depend on which components were built before it or when.
  Component& build(std::size_t ci);
  // The built components as (index, record) in ascending index order.
  [[nodiscard]] std::vector<std::pair<std::size_t, const Component*>> built_components() const;

  [[nodiscard]] Duration hop_delay(const Component& c, const ComponentSample& s, TimePoint t);

  Topology topo_;
  NetConfig config_;
  // Keyed construction forks and the pregenerated provider events that
  // build() reads.
  Rng quality_rng_;     // fork("core-quality")
  Rng stretch_rng_;     // fork("core-stretch")
  Rng hit_root_;        // fork("event-hits")
  Rng component_root_;  // fork("component")
  std::vector<std::vector<SiteEvent>> site_events_;
  // Site components by id (the first kSiteCompCount * n ids) and built
  // core segments; a site record is null until first traversal.
  std::vector<std::unique_ptr<Component>> sites_;
  CoreIndex cores_;
  std::size_t built_ = 0;  // site and core records built
  Rng pkt_rng_;
  Stats stats_;
  const FaultHook* fault_ = nullptr;
  TimePoint max_send_;  // furthest send_time seen (monotonicity watermark)
};

}  // namespace ronpath

#endif  // RONPATH_NET_NETWORK_H_
