// Per-component stochastic loss and delay processes.
//
// Each underlay component owns a ComponentProcess composed of:
//   * a lazy Poisson OUTAGE process (drop probability 1 while active),
//   * a lazy Poisson EPISODE process (multiplies burst arrival rate),
//   * a BURST process: non-homogeneous Poisson arrivals whose rate is
//     base * diurnal(t) * episode_boost(t) * static_boost(t), with
//     lognormal durations and a fixed in-burst drop probability.
//
// Timelines are generated lazily and deterministically: the interval
// layout is a pure function of the component's forked RNG stream and the
// (deterministic) sequence of generation horizons, not of how often it is
// queried. Two packets querying the same instant always see the same
// burst/episode/outage state - the property that makes conditional-loss
// measurements meaningful.
//
// Queries must be "roughly monotone": each query may lag the furthest
// query seen so far by at most kQuerySafety (packets in flight plus probe
// pair gaps). Intervals wholly older than that are pruned, bounding
// memory over arbitrarily long runs.
//
// Hot path (see DESIGN.md "Hot path"): the roughly-monotone contract lets
// every per-packet lookup ride a cached cursor that only moves forward -
// amortized O(1) - falling back to binary search on the bounded backward
// jumps. Timelines live in flat ring buffers (interval_ring.h), and the
// burst generator proves "no arrival in this window" from a raw uniform
// draw whenever it can, skipping the log/sin evaluations entirely while
// consuming the exact same RNG stream. All observable state is
// bit-identical to the straightforward implementation; a retained set of
// *_reference lookups pins that in tests.

#ifndef RONPATH_NET_LOSS_PROCESS_H_
#define RONPATH_NET_LOSS_PROCESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/config.h"
#include "net/interval_ring.h"
#include "util/rng.h"
#include "util/time.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

// Maximum allowed backwards distance of a query from the furthest query.
inline constexpr Duration kQuerySafety = Duration::seconds(30);
// How far beyond the queried time the generators run ahead.
inline constexpr Duration kGenLookahead = Duration::seconds(60);

struct StateInterval {
  TimePoint start;
  TimePoint end;
  double value = 1.0;  // episode/static: rate boost; burst: drop prob
};

// A monotone position in an interval timeline. Holds an absolute index
// (total intervals ever popped + offset into the live ring), so pruning
// never invalidates it. Callers that query the same timeline from two
// differently-paced streams (packet time vs. generation lookahead) keep
// one cursor per stream so neither thrashes the other.
struct TimelineCursor {
  std::uint64_t idx = 0;
};

// Homogeneous-rate lazy Poisson interval process (episodes, outages).
// Overlapping intervals are merged (value = max).
class LazyIntervalProcess {
 public:
  // `mean_interarrival` between interval starts; duration ~ Exp(mean_duration).
  LazyIntervalProcess(Duration mean_interarrival, Duration mean_duration, double value,
                      Rng rng);

  void generate_until(TimePoint t);
  void prune_before(TimePoint t);

  // Value of the interval covering t, or 0.0 if none. generate_until(t)
  // must have been called with a time >= t, and t must not precede the
  // pruned history (prune_before watermark). Violations assert in debug
  // builds; release builds clamp t into the valid [pruned, generated]
  // range so a badly out-of-order query degrades to the nearest known
  // state instead of silently reporting "no interval".
  //
  // The cursor variant is amortized O(1) for roughly-monotone t streams;
  // the no-argument form uses an internal cursor. value_at_reference is
  // the retained binary-search implementation the fuzz tests compare
  // against; it never touches cursor state.
  [[nodiscard]] double value_at(TimePoint t, TimelineCursor& cursor) const;
  [[nodiscard]] double value_at(TimePoint t) const { return value_at(t, default_cursor_); }
  [[nodiscard]] double value_at_reference(TimePoint t) const;
  [[nodiscard]] bool active_at(TimePoint t) const { return value_at(t) != 0.0; }

  // Edges (starts and ends) in [from, to), used by the burst generator to
  // keep its piecewise-constant rate segments exact.
  void collect_edges(TimePoint from, TimePoint to, std::vector<TimePoint>& out) const;

  // True when any interval edge falls strictly inside (from, to). O(1)
  // amortized for monotone `from` streams via `cursor`; used by the burst
  // generator to take its no-edges fast path.
  [[nodiscard]] bool has_edge_in(TimePoint from, TimePoint to, TimelineCursor& cursor) const;

  // First interval edge strictly after t, or the generated horizon when no
  // further edge is known yet. The value at any instant in (t, returned)
  // equals the value at t; used to bound boost-product caching. Starts
  // never move once generated, and a merge can only extend an interval's
  // end (the value is constant per process), so the bound stays exact.
  [[nodiscard]] TimePoint next_edge_after(TimePoint t, TimelineCursor& cursor) const;

  [[nodiscard]] const Ring<StateInterval>& intervals() const { return intervals_; }
  [[nodiscard]] TimePoint generated_until() const { return cursor_; }

  // Snapshot support: serializes the full mutable state (Rng stream,
  // generation/prune watermarks, retained intervals, query cursor).
  // restore_state expects a process constructed with identical ctor
  // arguments; configuration is not re-encoded.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: interval ordering/disjointness, watermark
  // consistency (pruned <= generated, next arrival beyond the generated
  // horizon). Appends one message per violation, prefixed with `who`.
  void check_invariants(const std::string& who, std::vector<std::string>& out) const;

 private:
  void push_merged(StateInterval iv);
  // Clamp + assert shared by all lookups.
  [[nodiscard]] TimePoint checked(TimePoint t) const;
  // Index of the first interval with end > t, starting from hint `i`.
  [[nodiscard]] std::size_t seek(TimePoint t, std::size_t i) const;

  Duration mean_interarrival_;
  Duration mean_duration_;
  double value_;
  Rng rng_;
  TimePoint cursor_;         // timeline generated up to here
  TimePoint next_arrival_;   // first arrival at or beyond cursor_
  TimePoint pruned_before_;  // history strictly before here is gone
  std::uint64_t popped_ = 0;  // intervals pruned so far (absolute indexing)
  Ring<StateInterval> intervals_;
  mutable TimelineCursor default_cursor_;
};

// A piecewise-constant segment of the flattened static-boost product.
// Segment k covers [start_k, start_{k+1}) (the last runs to infinity);
// times before the first segment have boost 1.0.
struct BoostSegment {
  TimePoint start;
  double value = 1.0;
};

// Flattens possibly-overlapping multiplicative boost intervals (sorted by
// start) into disjoint segments. Each segment's value is the product over
// the covering intervals taken in input order, so a segment lookup is
// bit-identical to multiplying through the interval list at any time
// inside the segment.
[[nodiscard]] std::vector<BoostSegment> flatten_boosts(const std::vector<StateInterval>& boosts);

// Retained reference: the original linear scan-and-multiply, used by
// tests to pin flatten_boosts + cursor lookups.
[[nodiscard]] double boost_at_reference(const std::vector<StateInterval>& boosts, TimePoint t);

// What a packet experiences when traversing a component at an instant.
struct ComponentSample {
  double drop_prob = 0.0;      // probability this packet is dropped here
  bool outage = false;         // inside a total outage
  bool burst = false;          // inside a loss burst
  bool episode = false;        // inside a congestion episode
  Duration queue_delay_mean;   // mean extra queueing delay to draw from

  friend bool operator==(const ComponentSample&, const ComponentSample&) = default;
};

class ComponentProcess {
 public:
  // `static_boosts`: pre-resolved rate-boost intervals (provider events,
  // configured incidents), sorted by start, possibly overlapping.
  // `site_lon_deg` drives the diurnal phase.
  ComponentProcess(const ComponentParams& params, double site_lon_deg,
                   std::vector<StateInterval> static_boosts, Rng rng);

  // State of the component for a packet arriving at time t.
  [[nodiscard]] ComponentSample sample(TimePoint t);

  // Identical generation and pruning side effects as sample(), but all
  // state lookups go through the retained binary-search reference
  // implementations instead of the cursors. The fuzz tests interleave
  // sample()/sample_reference() on the same stream and assert equality.
  [[nodiscard]] ComponentSample sample_reference(TimePoint t);

  [[nodiscard]] const ComponentParams& params() const { return params_; }

  // Introspection for tests: burst/episode/outage interval counts so far.
  [[nodiscard]] std::size_t generated_bursts() const { return generated_bursts_; }

  // Snapshot support: full mutable state (sub-process timelines, burst
  // Rng/cursors/ring, caches, watermarks). Like LazyIntervalProcess,
  // restore_state expects identical construction.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: delegates to the sub-processes and checks the
  // burst ring plus generation-horizon ordering.
  void check_invariants(const std::string& who, std::vector<std::string>& out) const;

 private:
  void generate_until(TimePoint t);
  // Runs the piecewise-constant burst arrival chain over [from, to).
  void generate_segment(TimePoint from, TimePoint to);
  [[nodiscard]] double static_boost_at(TimePoint t);
  [[nodiscard]] double rate_per_sec_at(TimePoint t);
  void push_burst(StateInterval iv);
  [[nodiscard]] double burst_drop_at(TimePoint t) const;
  [[nodiscard]] double burst_drop_at_reference(TimePoint t) const;
  template <bool kReference>
  [[nodiscard]] ComponentSample sample_impl(TimePoint t);

  ComponentParams params_;
  double site_lon_deg_;
  std::vector<StateInterval> static_boosts_;

  // Flattened static boosts + generation-side cursor (never pruned).
  std::vector<BoostSegment> boost_segments_;
  std::size_t boost_seg_idx_ = 0;
  // All static-boost edges, sorted; generation-side cursor.
  std::vector<TimePoint> static_edges_;
  std::size_t static_edge_idx_ = 0;

  LazyIntervalProcess episodes_;
  LazyIntervalProcess outages_;
  // Generation-lookahead cursor into episodes_ (runs ~kGenLookahead ahead
  // of the packet-time cursor inside episodes_ itself).
  TimelineCursor episode_gen_cursor_;

  Rng burst_rng_;
  TimePoint burst_cursor_;
  // Cached episode*static boost products for the burst generator, exact
  // for generation times in [last recompute, ebsb_valid_until_). See
  // generate_segment.
  TimePoint ebsb_valid_until_;      // epoch: recompute on first use
  double cached_rate_upper_ = 0.0;  // rate_upper_factor_ * eb * sb
  bool cached_rate_zero_ = true;    // base * eb * sb == 0
  std::vector<TimePoint> edges_scratch_;  // reused by generate_until
  TimePoint next_hour_edge_;  // first hourly rate edge after burst_cursor_
  Ring<StateInterval> bursts_;
  std::uint64_t bursts_popped_ = 0;
  mutable TimelineCursor burst_query_cursor_;
  std::size_t generated_bursts_ = 0;

  // Precomputed per-component constants (bit-identical to evaluating the
  // source expressions at each use).
  double base_rate_per_sec_ = 0.0;  // bursts_per_hour / 3600
  double rate_upper_factor_ = 0.0;  // base * (1 + diurnal_amplitude)
  double ln_burst_median_ = 0.0;
  double ln_short_burst_median_ = 0.0;

  TimePoint max_query_;
};

}  // namespace ronpath

#endif  // RONPATH_NET_LOSS_PROCESS_H_
