#include "overlay/estimator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace ronpath {
namespace {

TEST(WindowLossEstimator, EmptyIsOptimistic) {
  WindowLossEstimator e(100);
  EXPECT_DOUBLE_EQ(e.loss(), 0.0);
  EXPECT_EQ(e.samples(), 0u);
}

TEST(WindowLossEstimator, AveragesWindow) {
  WindowLossEstimator e(10);
  for (int i = 0; i < 7; ++i) e.record(false);
  for (int i = 0; i < 3; ++i) e.record(true);
  EXPECT_DOUBLE_EQ(e.loss(), 0.3);
}

TEST(WindowLossEstimator, OldSamplesExpire) {
  WindowLossEstimator e(4);
  e.record(true);
  e.record(true);
  e.record(true);
  e.record(true);
  EXPECT_DOUBLE_EQ(e.loss(), 1.0);
  for (int i = 0; i < 4; ++i) e.record(false);
  EXPECT_DOUBLE_EQ(e.loss(), 0.0);
}

TEST(WindowLossEstimator, PartialWindowUsesCount) {
  WindowLossEstimator e(100);
  e.record(true);
  e.record(false);
  EXPECT_DOUBLE_EQ(e.loss(), 0.5);
}

// The window is a 128-bit ring: a window it cannot hold is rejected by
// name instead of silently truncated.
TEST(WindowLossEstimator, WindowOutsideTheRingIsRejected) {
  EXPECT_THROW(WindowLossEstimator(0), std::invalid_argument);
  EXPECT_NO_THROW(WindowLossEstimator(WindowLossEstimator::kMaxWindow));
  try {
    WindowLossEstimator e(WindowLossEstimator::kMaxWindow + 1);
    ADD_FAILURE() << "a 129-outcome window was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("loss_window"), std::string::npos) << e.what();
  }
}

// Every outcome and the loss match a plain sliding window at each step,
// through many wraps of the ring, for windows that do and do not divide
// its 128 bits.
TEST(WindowLossEstimator, RingMatchesASlidingWindow) {
  for (const std::size_t window : {1, 4, 10, 100, 127, 128}) {
    WindowLossEstimator e(window);
    std::vector<bool> model;
    Rng rng(window);
    for (int i = 0; i < 700; ++i) {
      const bool lost = rng.bernoulli(0.3);
      e.record(lost);
      model.push_back(lost);
      if (model.size() > window) model.erase(model.begin());
      ASSERT_EQ(e.samples(), model.size()) << window << " step " << i;
      std::size_t lost_count = 0;
      for (std::size_t k = 0; k < model.size(); ++k) {
        ASSERT_EQ(e.lost_at(k), model[k]) << window << " step " << i << " outcome " << k;
        lost_count += model[k] ? 1 : 0;
      }
      EXPECT_DOUBLE_EQ(e.loss(), static_cast<double>(lost_count) /
                                     static_cast<double>(model.size()));
    }
  }
}

TEST(EwmaLossEstimator, FirstSampleSetsValue) {
  EwmaLossEstimator e(0.1);
  e.record(true);
  EXPECT_DOUBLE_EQ(e.loss(), 1.0);
}

TEST(EwmaLossEstimator, DecaysTowardRecent) {
  EwmaLossEstimator e(0.5);
  e.record(true);   // 1.0
  e.record(false);  // 0.5
  e.record(false);  // 0.25
  EXPECT_DOUBLE_EQ(e.loss(), 0.25);
}

TEST(LatencyEstimator, UnmeasuredIsMax) {
  LatencyEstimator e;
  EXPECT_FALSE(e.has_estimate());
  EXPECT_EQ(e.latency(), Duration::max());
}

TEST(LatencyEstimator, EwmaSmoothing) {
  LatencyEstimator e(0.5);
  e.record(Duration::millis(100));
  EXPECT_EQ(e.latency(), Duration::millis(100));
  e.record(Duration::millis(200));
  EXPECT_EQ(e.latency(), Duration::millis(150));
}

TEST(LinkEstimator, ProbeUpdatesLossAndLatency) {
  LinkEstimator e(100, 0.1);
  e.record_probe(false, Duration::millis(40), TimePoint::epoch());
  EXPECT_DOUBLE_EQ(e.loss(), 0.0);
  EXPECT_EQ(e.latency(), Duration::millis(40));
  e.record_probe(true, Duration::zero(), TimePoint::epoch() + Duration::seconds(15));
  EXPECT_DOUBLE_EQ(e.loss(), 0.5);
  // Lost probes do not pollute the latency estimate.
  EXPECT_EQ(e.latency(), Duration::millis(40));
}

// The paper's down-detection: four consecutive lost follow-ups mark the
// link down; any success recovers it.
TEST(LinkEstimator, DownAfterFourFollowupLosses) {
  LinkEstimator e(100, 0.1);
  e.record_probe(true, Duration::zero(), TimePoint::epoch());
  for (int i = 0; i < 3; ++i) {
    e.record_followup(true, TimePoint::epoch() + Duration::seconds(i + 1));
    EXPECT_FALSE(e.down()) << i;
  }
  e.record_followup(true, TimePoint::epoch() + Duration::seconds(4));
  EXPECT_TRUE(e.down());
}

TEST(LinkEstimator, SuccessfulFollowupResets) {
  LinkEstimator e(100, 0.1);
  for (int i = 0; i < 3; ++i) e.record_followup(true, TimePoint::epoch());
  e.record_followup(false, TimePoint::epoch());
  for (int i = 0; i < 3; ++i) e.record_followup(true, TimePoint::epoch());
  EXPECT_FALSE(e.down());
  e.record_followup(true, TimePoint::epoch());
  EXPECT_TRUE(e.down());
}

TEST(LinkEstimator, SuccessfulProbeClearsDown) {
  LinkEstimator e(100, 0.1);
  for (int i = 0; i < 4; ++i) e.record_followup(true, TimePoint::epoch());
  ASSERT_TRUE(e.down());
  e.record_probe(false, Duration::millis(30), TimePoint::epoch() + Duration::seconds(20));
  EXPECT_FALSE(e.down());
}

TEST(LinkEstimator, FollowupsDoNotEnterLossWindow) {
  LinkEstimator e(100, 0.1);
  e.record_probe(true, Duration::zero(), TimePoint::epoch());
  for (int i = 0; i < 4; ++i) e.record_followup(true, TimePoint::epoch());
  EXPECT_EQ(e.samples(), 1u);
  EXPECT_DOUBLE_EQ(e.loss(), 1.0);
}

TEST(LinkEstimator, EwmaModeChangesScoring) {
  EstimatorConfig cfg;
  cfg.loss_window = 100;
  cfg.use_ewma_loss = true;
  cfg.loss_ewma_alpha = 0.5;
  LinkEstimator e(cfg);
  e.record_probe(true, Duration::zero(), TimePoint::epoch());
  e.record_probe(false, Duration::millis(10), TimePoint::epoch());
  // EWMA(0.5): 1.0 then 0.5; the window would say 0.5 too...
  EXPECT_DOUBLE_EQ(e.loss(), 0.5);
  e.record_probe(false, Duration::millis(10), TimePoint::epoch());
  // EWMA: 0.25; window would say 1/3.
  EXPECT_DOUBLE_EQ(e.loss(), 0.25);
}

TEST(LinkEstimator, WindowModeIsDefault) {
  LinkEstimator e(EstimatorConfig{});
  e.record_probe(true, Duration::zero(), TimePoint::epoch());
  e.record_probe(false, Duration::millis(10), TimePoint::epoch());
  e.record_probe(false, Duration::millis(10), TimePoint::epoch());
  EXPECT_NEAR(e.loss(), 1.0 / 3.0, 1e-12);
}

TEST(LinkEstimator, LossRunsBucketedByLength) {
  LinkEstimator e(100, 0.1);
  auto probe = [&](bool lost) { e.record_probe(lost, Duration::millis(10), TimePoint::epoch()); };
  // Run of 1, run of 3, run of 7 (bucketed as 6+), unterminated run of 2.
  probe(true);
  probe(false);
  for (int i = 0; i < 3; ++i) probe(true);
  probe(false);
  for (int i = 0; i < 7; ++i) probe(true);
  probe(false);
  probe(true);
  probe(true);
  const auto& runs = e.loss_runs();
  EXPECT_EQ(runs[0], 1);  // length 1
  EXPECT_EQ(runs[1], 0);
  EXPECT_EQ(runs[2], 1);  // length 3
  EXPECT_EQ(runs[5], 1);  // length 7 -> 6+
  // The trailing run of 2 has not completed: not yet counted.
  std::int64_t total = 0;
  for (auto r : runs) total += r;
  EXPECT_EQ(total, 3);
}

TEST(LinkEstimator, FollowupsDoNotAffectLossRuns) {
  LinkEstimator e(100, 0.1);
  e.record_probe(true, Duration::zero(), TimePoint::epoch());
  for (int i = 0; i < 4; ++i) e.record_followup(false, TimePoint::epoch());
  e.record_probe(false, Duration::millis(5), TimePoint::epoch());
  EXPECT_EQ(e.loss_runs()[0], 1);
}

TEST(LinkEstimator, LastUpdateTracksLatest) {
  LinkEstimator e(100, 0.1);
  const TimePoint t1 = TimePoint::epoch() + Duration::seconds(5);
  e.record_probe(false, Duration::millis(10), t1);
  EXPECT_EQ(e.last_update(), t1);
  const TimePoint t2 = t1 + Duration::seconds(1);
  e.record_followup(false, t2);
  EXPECT_EQ(e.last_update(), t2);
}

}  // namespace
}  // namespace ronpath
