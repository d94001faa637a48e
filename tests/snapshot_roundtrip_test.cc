// Save/restore round-trip tests for the snapshot codec and the per-layer
// state serialization: Rng streams (including the cached Box-Muller
// spare), interval rings + timeline cursors (including restore-then-
// backjump queries), scheduler clock/sequence state with FIFO-tie
// preservation, link estimators, the link-state table and the router's
// hold-down state, plus the envelope checksum.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "event/scheduler.h"
#include "net/loss_process.h"
#include "overlay/estimator.h"
#include "overlay/link_state.h"
#include "overlay/router.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "util/time.h"

namespace ronpath {
namespace {

TEST(SnapshotCodec, PrimitivesRoundTrip) {
  snap::Encoder e;
  e.tag("TEST");
  e.u8(0x7f);
  e.b(true);
  e.b(false);
  e.u32(0xdeadbeef);
  e.u64(0x0123456789abcdefull);
  e.i64(-42);
  e.f64(-0.1);
  e.duration(Duration::millis(1500));
  e.time(TimePoint::epoch() + Duration::seconds(7));
  e.str("hello snapshot");

  snap::Decoder d(e.bytes());
  d.expect_tag("TEST");
  EXPECT_EQ(d.u8(), 0x7f);
  EXPECT_TRUE(d.b());
  EXPECT_FALSE(d.b());
  EXPECT_EQ(d.u32(), 0xdeadbeefu);
  EXPECT_EQ(d.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(d.i64(), -42);
  EXPECT_EQ(d.f64(), -0.1);
  EXPECT_EQ(d.duration(), Duration::millis(1500));
  EXPECT_EQ(d.time(), TimePoint::epoch() + Duration::seconds(7));
  EXPECT_EQ(d.str(), "hello snapshot");
  EXPECT_NO_THROW(d.expect_done());
}

TEST(SnapshotCodec, TruncationThrowsAtEveryPrefix) {
  snap::Encoder e;
  e.tag("TRNC");
  e.u64(1);
  e.str("payload");
  const std::vector<std::uint8_t>& full = e.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    snap::Decoder d(full.data(), len);
    EXPECT_THROW(
        {
          d.expect_tag("TRNC");
          (void)d.u64();
          (void)d.str();
        },
        snap::SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotCodec, TagMismatchAndTrailingBytesThrow) {
  snap::Encoder e;
  e.tag("GOOD");
  e.u8(1);
  snap::Decoder wrong(e.bytes());
  EXPECT_THROW(wrong.expect_tag("EVIL"), snap::SnapshotError);

  snap::Decoder trailing(e.bytes());
  trailing.expect_tag("GOOD");
  EXPECT_THROW(trailing.expect_done(), snap::SnapshotError);
}

TEST(SnapshotCodec, CountRejectsAbsurdLengths) {
  snap::Encoder e;
  e.u64(1u << 30);  // claims a billion elements with no payload behind it
  snap::Decoder d(e.bytes());
  EXPECT_THROW((void)d.count(8), snap::SnapshotError);
}

// A Decoder reads its bytes in place, so binding one to a temporary
// vector would read freed memory: that form must not compile, while the
// lvalue and pointer forms still do.
TEST(SnapshotCodec, DecoderRejectsTemporaryBytes) {
  using Bytes = std::vector<std::uint8_t>;
  static_assert(!std::is_constructible_v<snap::Decoder, Bytes&&>);
  static_assert(!std::is_constructible_v<snap::Decoder, Bytes>);
  static_assert(std::is_constructible_v<snap::Decoder, Bytes&>);
  static_assert(std::is_constructible_v<snap::Decoder, const Bytes&>);
  static_assert(std::is_constructible_v<snap::Decoder, const std::uint8_t*, std::size_t>);
  const Bytes bytes = {1};
  snap::Decoder d(bytes);
  EXPECT_EQ(d.u8(), 1);
}

// The snapshot checksum is CRC-64/XZ folded eight bytes at a time; it
// must give the catalogue check value and the bytewise CRC's value at
// every length and alignment, so every sealed file keeps its bytes.
TEST(SnapshotCodec, Crc64MatchesTheBytewiseCrc) {
  const std::string check = "123456789";
  EXPECT_EQ(snap::crc64(reinterpret_cast<const std::uint8_t*>(check.data()), check.size()),
            0x995dc9bbdf1939faull);

  const auto bytewise = [](const std::uint8_t* data, std::size_t size) {
    std::uint64_t crc = ~std::uint64_t{0};
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int k = 0; k < 8; ++k) crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ull : crc >> 1;
    }
    return ~crc;
  };
  std::vector<std::uint8_t> buf(64 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 167 + 13);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(snap::crc64(buf.data() + offset, len), bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Chaining through the `crc` argument continues the same checksum.
  EXPECT_EQ(snap::crc64(buf.data() + 29, 43, snap::crc64(buf.data(), 29)),
            snap::crc64(buf.data(), 72));
}

TEST(SnapshotRng, StreamRoundTripsExactly) {
  Rng a(1234);
  for (int i = 0; i < 17; ++i) (void)a.next_u64();

  snap::Encoder e;
  snap::save_rng(e, a);
  Rng b(999);  // deliberately different seed; restore must overwrite it
  snap::Decoder d(e.bytes());
  snap::restore_rng(d, b);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "draw " << i;
  }
  EXPECT_EQ(a.next_double(), b.next_double());
  EXPECT_EQ(a.exponential(2.5), b.exponential(2.5));
}

TEST(SnapshotRng, BoxMullerSpareSurvivesRestore) {
  Rng a(42);
  // One normal draw caches the second Box-Muller variate.
  (void)a.normal(0.0, 1.0);

  snap::Encoder e;
  snap::save_rng(e, a);
  Rng b(7);
  snap::Decoder d(e.bytes());
  snap::restore_rng(d, b);

  // The next normal must come from the cached spare in both streams, and
  // every draw after that must stay in lockstep.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.normal(1.0, 3.0), b.normal(1.0, 3.0)) << "normal draw " << i;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Two LazyIntervalProcesses constructed identically; one round-trips
// through save/restore mid-run. Their query answers must stay identical,
// including backward (roughly-monotone) queries right after restore.
TEST(SnapshotIntervalProcess, RoundTripWithBackjumpQueries) {
  const auto make = [] {
    return LazyIntervalProcess(Duration::seconds(40), Duration::seconds(12), 1.0,
                               Rng(77).fork("proc"));
  };
  LazyIntervalProcess control = make();
  LazyIntervalProcess original = make();

  const TimePoint t0 = TimePoint::epoch();
  control.generate_until(t0 + Duration::minutes(30));
  original.generate_until(t0 + Duration::minutes(30));
  control.prune_before(t0 + Duration::minutes(10));
  original.prune_before(t0 + Duration::minutes(10));
  // Walk the internal cursor forward so the round trip covers it.
  for (int i = 0; i < 100; ++i) {
    (void)control.value_at(t0 + Duration::minutes(10) + Duration::seconds(i * 10));
    (void)original.value_at(t0 + Duration::minutes(10) + Duration::seconds(i * 10));
  }

  snap::Encoder e;
  original.save_state(e);
  LazyIntervalProcess restored = make();
  snap::Decoder d(e.bytes());
  restored.restore_state(d);
  EXPECT_NO_THROW(d.expect_done());

  std::vector<std::string> violations;
  restored.check_invariants("restored", violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  // Restore-then-backjump: the first queries after restore step backwards
  // from the furthest query (legal within kQuerySafety). The restored
  // cursor state must give the same answers as the uninterrupted twin.
  const TimePoint far = t0 + Duration::minutes(10) + Duration::seconds(990);
  for (int back = 0; back <= 29; back += 7) {
    const TimePoint t = far - Duration::seconds(back);
    EXPECT_EQ(control.value_at(t), restored.value_at(t)) << "backjump " << back << "s";
  }

  // And the generators must continue in lockstep.
  control.generate_until(t0 + Duration::hours(2));
  restored.generate_until(t0 + Duration::hours(2));
  for (int i = 0; i < 200; ++i) {
    const TimePoint t = t0 + Duration::minutes(30) + Duration::seconds(i * 20);
    EXPECT_EQ(control.value_at(t), restored.value_at(t)) << "continued query " << i;
    EXPECT_EQ(control.value_at_reference(t), restored.value_at_reference(t));
  }
}

TEST(SnapshotIntervalProcess, RestoreIntoMismatchedRingSizeIsCaught) {
  LazyIntervalProcess a(Duration::seconds(5), Duration::seconds(2), 1.0, Rng(1).fork("a"));
  a.generate_until(TimePoint::epoch() + Duration::minutes(5));
  snap::Encoder e;
  a.save_state(e);

  // Corrupt the section tag; restore must throw, not misread.
  std::vector<std::uint8_t> bytes = e.bytes();
  bytes[0] ^= 0xff;
  LazyIntervalProcess b(Duration::seconds(5), Duration::seconds(2), 1.0, Rng(1).fork("a"));
  snap::Decoder d(bytes);
  EXPECT_THROW(b.restore_state(d), snap::SnapshotError);
}

// The scheduler round trip: kill mid-run, re-arm saved descriptors with
// their original sequence numbers, and verify the continuation fires in
// exactly the control order — including events tied on the timestamp.
TEST(SnapshotScheduler, RestorePreservesOrderAndFifoTies) {
  const TimePoint tie = TimePoint::epoch() + Duration::seconds(10);

  std::vector<int> control_order;
  Scheduler control;
  control.schedule_at(TimePoint::epoch() + Duration::seconds(3),
                      [&] { control_order.push_back(100); });
  for (int i = 0; i < 6; ++i) {
    control.schedule_at(tie, [&control_order, i] { control_order.push_back(i); });
  }
  control.schedule_at(TimePoint::epoch() + Duration::seconds(12),
                      [&] { control_order.push_back(200); });
  control.run_until(TimePoint::epoch() + Duration::minutes(1));
  ASSERT_EQ(control_order.size(), 8u);

  // Same schedule, but killed at t=5s and restored into a new scheduler.
  std::vector<int> live_order;
  Scheduler victim;
  std::vector<EventHandle> handles;
  handles.push_back(victim.schedule_at(TimePoint::epoch() + Duration::seconds(3),
                                       [&] { live_order.push_back(100); }));
  for (int i = 0; i < 6; ++i) {
    handles.push_back(victim.schedule_at(tie, [&live_order, i] { live_order.push_back(i); }));
  }
  handles.push_back(victim.schedule_at(TimePoint::epoch() + Duration::seconds(12),
                                       [&] { live_order.push_back(200); }));
  victim.run_until(TimePoint::epoch() + Duration::seconds(5));

  struct Descriptor {
    int id;
    TimePoint at;
    std::uint64_t seq;
  };
  std::vector<Descriptor> saved;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    TimePoint at;
    std::uint64_t seq = 0;
    if (victim.pending_entry(handles[i], &at, &seq)) {
      saved.push_back({static_cast<int>(i), at, seq});
    }
  }
  ASSERT_EQ(saved.size(), 7u);  // the 3 s event already fired
  const TimePoint now = victim.now();
  const std::uint64_t next_seq = victim.next_seq();
  const std::uint64_t dispatched = victim.dispatched_events();

  Scheduler fresh;
  fresh.restore_clock(now, next_seq, dispatched);
  EXPECT_EQ(fresh.now(), now);
  EXPECT_EQ(fresh.dispatched_events(), dispatched);
  for (const Descriptor& desc : saved) {
    // Map descriptor ids back to the same side effects as the control.
    const int value = desc.id == 0 ? 100 : desc.id <= 6 ? desc.id - 1 : 200;
    fresh.schedule_at_restored(desc.at, desc.seq,
                               [&live_order, value] { live_order.push_back(value); });
  }
  std::vector<std::string> violations;
  fresh.check_invariants(violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  fresh.run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_EQ(live_order, control_order);
  EXPECT_EQ(fresh.dispatched_events(), control.dispatched_events());
  EXPECT_EQ(fresh.next_seq(), control.next_seq());
}

TEST(SnapshotScheduler, OldHandlesAreInertAfterRestoreClock) {
  Scheduler sched;
  int fired = 0;
  EventHandle h =
      sched.schedule_at(TimePoint::epoch() + Duration::seconds(1), [&] { ++fired; });
  sched.restore_clock(TimePoint::epoch(), sched.next_seq(), 0);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must be a harmless no-op
  sched.run_until(TimePoint::epoch() + Duration::minutes(1));
  EXPECT_EQ(fired, 0);
}

TEST(SnapshotEstimator, LinkEstimatorRoundTripStaysInLockstep) {
  const EstimatorConfig cfg{100, false, 0.03, 0.1};
  LinkEstimator control(cfg);
  LinkEstimator original(cfg);
  Rng rng(5);
  TimePoint t = TimePoint::epoch();
  for (int i = 0; i < 257; ++i) {
    t += Duration::seconds(15);
    const bool lost = rng.bernoulli(0.2);
    const Duration rtt = Duration::micros(30'000 + 100 * static_cast<std::int64_t>(i % 37));
    control.record_probe(lost, rtt, t);
    original.record_probe(lost, rtt, t);
    if (lost) {
      control.record_followup(i % 3 == 0, t + Duration::seconds(1));
      original.record_followup(i % 3 == 0, t + Duration::seconds(1));
    }
  }

  snap::Encoder e;
  original.save_state(e);
  LinkEstimator restored(cfg);
  snap::Decoder d(e.bytes());
  restored.restore_state(d);
  EXPECT_NO_THROW(d.expect_done());

  EXPECT_EQ(control.loss(), restored.loss());
  EXPECT_EQ(control.latency(), restored.latency());
  EXPECT_EQ(control.down(), restored.down());
  EXPECT_EQ(control.samples(), restored.samples());
  EXPECT_EQ(control.loss_runs(), restored.loss_runs());

  std::vector<std::string> violations;
  restored.check_invariants("restored", t, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  // Continue both with identical input; the down/run-length bookkeeping
  // must evolve identically.
  for (int i = 0; i < 64; ++i) {
    t += Duration::seconds(15);
    const bool lost = i % 5 != 0;
    control.record_probe(lost, Duration::millis(25), t);
    restored.record_probe(lost, Duration::millis(25), t);
    if (lost) {
      control.record_followup(true, t + Duration::seconds(1));
      restored.record_followup(true, t + Duration::seconds(1));
    }
    EXPECT_EQ(control.loss(), restored.loss()) << "probe " << i;
    EXPECT_EQ(control.down(), restored.down()) << "probe " << i;
  }
  EXPECT_EQ(control.loss_runs(), restored.loss_runs());
}

// LEST saves the window's lost count next to its bits; a count the bits
// do not hold is an impossible window, not a loss estimate.
TEST(SnapshotEstimator, LostCountMustMatchTheWindowBits) {
  LinkEstimator original(100, 0.1);
  for (int i = 0; i < 10; ++i) {
    original.record_probe(false, Duration::millis(20),
                          TimePoint::epoch() + Duration::seconds(15 * i));
  }
  snap::Encoder e;
  original.save_state(e);
  std::vector<std::uint8_t> bytes = e.take();
  // Tag (4 bytes), outcome count (8), 10 outcomes in 2 bytes, then the
  // lost count as a little-endian u64.
  constexpr std::size_t kLostAt = 4 + 8 + 2;
  ASSERT_EQ(bytes[kLostAt], 0);
  {
    LinkEstimator restored(100, 0.1);
    snap::Decoder d(bytes);
    ASSERT_NO_THROW(restored.restore_state(d));
    EXPECT_EQ(restored.loss(), 0.0);
  }
  for (const std::uint8_t lost : {1, 50}) {
    bytes[kLostAt] = lost;
    LinkEstimator restored(100, 0.1);
    snap::Decoder d(bytes);
    EXPECT_THROW(restored.restore_state(d), snap::SnapshotError) << int{lost};
  }
}

TEST(SnapshotLinkState, TableRoundTripAndSizeMismatch) {
  LinkStateTable table(3);
  LinkMetrics m;
  m.loss = 0.25;
  m.latency = Duration::millis(40);
  m.has_latency = true;
  m.samples = 17;
  m.published = TimePoint::epoch() + Duration::minutes(2);
  table.publish(0, 1, m);
  m.down = true;
  table.publish(1, 2, m);

  snap::Encoder e;
  table.save_state(e);
  LinkStateTable restored(3);
  snap::Decoder d(e.bytes());
  restored.restore_state(d);
  EXPECT_EQ(restored.get(0, 1).loss, 0.25);
  EXPECT_EQ(restored.get(0, 1).latency, Duration::millis(40));
  EXPECT_TRUE(restored.get(1, 2).down);
  EXPECT_EQ(restored.get(2, 0).samples, 0u);

  std::vector<std::string> violations;
  restored.check_invariants(TimePoint::epoch() + Duration::minutes(3), violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  LinkStateTable wrong_size(4);
  snap::Decoder d2(e.bytes());
  EXPECT_THROW(wrong_size.restore_state(d2), snap::SnapshotError);
}

TEST(SnapshotRouter, HolddownAndIncumbentsRoundTrip) {
  const std::size_t n = 4;
  LinkStateTable table(n);
  RouterConfig cfg;
  cfg.holddown_base = Duration::seconds(30);
  cfg.entry_ttl = Duration::seconds(75);

  const auto publish = [&](NodeId s, NodeId d, double loss, bool down, TimePoint now) {
    LinkMetrics m;
    m.loss = loss;
    m.latency = Duration::millis(30);
    m.has_latency = true;
    m.down = down;
    m.samples = 50;
    m.published = now;
    table.publish(s, d, m);
  };

  Router control(0, table, cfg);
  Router original(0, table, cfg);

  TimePoint now = TimePoint::epoch() + Duration::seconds(10);
  // Make the path through via 2 attractive, select it, then take it down
  // repeatedly so hold-down strikes accumulate.
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d2 = 0; d2 < n; ++d2) {
      if (s != d2) publish(s, d2, 0.30, false, now);
    }
  }
  publish(0, 2, 0.01, false, now);
  publish(2, 1, 0.01, false, now);
  (void)control.best_loss_path(1, now);
  (void)original.best_loss_path(1, now);
  for (int round = 0; round < 3; ++round) {
    now += Duration::seconds(40);
    publish(0, 2, 0.5, true, now);  // incumbent via goes down -> strike
    (void)control.best_loss_path(1, now);
    (void)original.best_loss_path(1, now);
    now += Duration::seconds(40);
    publish(0, 2, 0.01, false, now);  // recovers, gets re-selected
    (void)control.best_loss_path(1, now);
    (void)original.best_loss_path(1, now);
  }

  snap::Encoder e;
  original.save_state(e);
  Router restored(0, table, cfg);
  snap::Decoder d(e.bytes());
  restored.restore_state(d);
  EXPECT_NO_THROW(d.expect_done());

  std::vector<std::string> violations;
  restored.check_invariants(now, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  EXPECT_EQ(control.loss_switches(1), restored.loss_switches(1));
  for (NodeId via = 2; via < n; ++via) {
    for (int k = 0; k < 10; ++k) {
      const TimePoint t = now + Duration::seconds(5 * k);
      EXPECT_EQ(control.held_down(1, via, t), restored.held_down(1, via, t))
          << "via " << via << " at +" << 5 * k << "s";
    }
  }

  // Continued evaluations agree choice-for-choice.
  for (int round = 0; round < 4; ++round) {
    now += Duration::seconds(20);
    publish(0, 2, round % 2 ? 0.01 : 0.6, round % 2 == 0, now);
    const PathChoice a = control.best_loss_path(1, now);
    const PathChoice b = restored.best_loss_path(1, now);
    EXPECT_EQ(a.path.via, b.path.via) << "round " << round;
    EXPECT_EQ(a.loss, b.loss) << "round " << round;
    EXPECT_EQ(control.loss_switches(1), restored.loss_switches(1)) << "round " << round;
  }
}

// A snapshot comes from disk and its CRC is not a MAC, so restore_state
// must reject every incumbent check_invariants would call malformed:
// otherwise the next route query reads link state out of bounds.
TEST(SnapshotRouter, MalformedIncumbentIsRejected) {
  const std::size_t n = 4;
  const NodeId self = 3;
  LinkStateTable table(n);
  // A ROUT section with one destination state (key 1) whose loss
  // incumbent has the given fields, no latency incumbent, no hold-downs.
  const auto encode = [](std::uint64_t src, std::uint64_t dst, std::uint64_t via) {
    snap::Encoder e;
    e.tag("ROUT");
    e.u64(1);
    e.u64(1);
    e.b(true);
    e.u64(src);
    e.u64(dst);
    e.u64(via);
    e.b(false);
    e.i64(0);
    e.i64(0);
    e.u64(0);
    return e.bytes();
  };

  {  // Control: a well-formed one-relay incumbent restores and routes.
    Router r(self, table, RouterConfig{});
    const std::vector<std::uint8_t> bytes = encode(self, 1, 2);
    snap::Decoder d(bytes);
    ASSERT_NO_THROW(r.restore_state(d));
    std::vector<std::string> violations;
    r.check_invariants(TimePoint::epoch(), violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
    EXPECT_NO_THROW((void)r.best_loss_path(1, TimePoint::epoch()));
  }

  struct Case {
    const char* what;
    std::uint64_t src, dst, via;
  };
  const Case cases[] = {
      {"via = n", self, 1, n},
      {"src != self", 0, 1, 2},
      {"dst != key", self, 2, 0},
      {"via = 65538, node 2 once narrowed", self, 1, 65538},
      // A relay at an endpoint would route its core leg over a segment
      // from a site to itself.
      {"via = self", self, 1, self},
      {"via = dst", self, 1, 1},
  };
  for (const Case& c : cases) {
    Router r(self, table, RouterConfig{});
    const std::vector<std::uint8_t> bytes = encode(c.src, c.dst, c.via);
    snap::Decoder d(bytes);
    EXPECT_THROW(r.restore_state(d), snap::SnapshotError) << c.what;
  }
}

}  // namespace
}  // namespace ronpath
