#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ronpath {
namespace {

TEST(ThreadPoolForEach, OutputsOrderedByIndexNotCompletion) {
  constexpr std::size_t kN = 200;
  std::vector<std::size_t> out(kN, 0);
  for_each_index(kN, 8, [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ThreadPoolForEach, InlineWhenSingleJob) {
  // jobs <= 1 must run on the calling thread, in index order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for_each_index(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolForEach, ZeroTasksIsANoop) {
  for_each_index(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolForEach, OversubscribedJobsStillComplete) {
  // Far more jobs than tasks or cores.
  std::atomic<int> ran{0};
  for_each_index(8, 64, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolForEach, RethrowsLowestIndexExceptionAfterAllTasksRan) {
  std::atomic<int> ran{0};
  try {
    for_each_index(20, 4, [&](std::size_t i) {
      ++ran;
      if (i == 3) throw std::runtime_error("task 3");
      if (i == 17) throw std::logic_error("task 17");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");  // lowest failing index wins
  }
  EXPECT_EQ(ran.load(), 20);  // the failure did not cancel other tasks
}

}  // namespace
}  // namespace ronpath
