#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace moteur {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng fork1 = parent.fork("grid");
  Rng fork2 = Rng(7).fork("grid");
  EXPECT_EQ(fork1.next_u64(), fork2.next_u64());

  Rng other = parent.fork("enactor");
  EXPECT_NE(parent.fork("grid").next_u64(), other.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(6);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.lognormal(std::log(600.0), 0.5));
  EXPECT_NEAR(percentile(draws, 50.0), 600.0, 15.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(30.0));
  EXPECT_NEAR(stats.mean(), 30.0, 1.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(StableHash, DeterministicAndSpread) {
  EXPECT_EQ(stable_hash64("abc"), stable_hash64("abc"));
  EXPECT_NE(stable_hash64("abc"), stable_hash64("abd"));
  EXPECT_NE(stable_hash64(""), stable_hash64("a"));
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(LinearFit, ExactLine) {
  const LinearFit fit = linear_fit({1, 2, 3, 4}, {5, 7, 9, 11});
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit(10.0), 23.0, 1e-12);
}

TEST(LinearFit, NoisyLineReasonable) {
  const LinearFit fit = linear_fit({0, 1, 2, 3, 4}, {1.1, 2.9, 5.2, 6.8, 9.1});
  EXPECT_NEAR(fit.slope, 2.0, 0.15);
  EXPECT_NEAR(fit.intercept, 1.0, 0.3);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, RejectsDegenerateInputs) {
  EXPECT_THROW(linear_fit({1.0}, {2.0}), InternalError);
  EXPECT_THROW(linear_fit({1, 2}, {1, 2, 3}), InternalError);
  EXPECT_THROW(linear_fit({2, 2, 2}, {1, 2, 3}), InternalError);
}

TEST(Percentile, InterpolatesAndBounds) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_THROW(percentile({}, 50.0), InternalError);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitJoinRoundTrip) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("SP+DP", "SP"));
  EXPECT_FALSE(starts_with("SP", "SP+DP"));
  EXPECT_TRUE(ends_with("file.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", "file.xml"));
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(9132), "2h 32m 12s");
  EXPECT_EQ(format_duration(75), "1m 15s");
  EXPECT_EQ(format_duration(8), "8s");
  EXPECT_EQ(format_duration(-75), "-1m 15s");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      ++counter;
      return i * 2;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 2);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++done;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, PostAllRunsTheBatchInOrderAndEmptiesIt) {
  ThreadPool pool(1);
  std::vector<int> order;  // appended by the single worker only
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  pool.post_all(tasks);
  EXPECT_TRUE(tasks.empty());
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace moteur
