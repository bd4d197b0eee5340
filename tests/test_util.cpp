#include <gtest/gtest.h>

#include <cmath>
#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"
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

TEST(MeanOf, AveragesTheValuesAndReadsZeroWhenEmpty) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean_of({-1.5}), -1.5);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
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

// ---------------------------------------------------------------------------
// SmallVector
// ---------------------------------------------------------------------------

using Small = SmallVector<std::size_t, 3>;

TEST(SmallVector, HoldsNInlineThenSpillsToTheHeap) {
  Small v{1, 2};
  EXPECT_TRUE(v.is_inline());
  v.push_back(3);
  EXPECT_TRUE(v.is_inline());
  v.push_back(v[0]);  // grows while the argument refers to an element
  EXPECT_FALSE(v.is_inline());
  v.emplace_back(5);
  EXPECT_EQ(std::vector<std::size_t>(v.begin(), v.end()),
            (std::vector<std::size_t>{1, 2, 3, 1, 5}));
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.back(), 5u);
  EXPECT_EQ(v.at(3), 1u);
  EXPECT_THROW((void)v.at(5), std::out_of_range);

  Small appended;
  appended.insert(appended.end(), v.begin(), v.end());
  EXPECT_EQ(appended, v);
  EXPECT_THROW(appended.insert(appended.begin(), v.begin(), v.end()), InternalError);
  const std::size_t raw[] = {7, 8};
  EXPECT_EQ(Small(raw, raw + 2), (Small{7, 8}));

  Small reserved;
  reserved.reserve(3);
  EXPECT_TRUE(reserved.is_inline());
  reserved.reserve(8);
  EXPECT_FALSE(reserved.is_inline());
  EXPECT_TRUE(reserved.empty());
}

TEST(SmallVector, CopiesAndMovesFromBothStates) {
  // shared_ptr elements count their owners, so a leaked or doubled element
  // shows in use_count().
  using Owners = SmallVector<std::shared_ptr<int>, 2>;
  const auto item = std::make_shared<int>(7);
  for (const std::size_t size : {std::size_t{2}, std::size_t{5}}) {
    SCOPED_TRACE(size);
    Owners source;
    for (std::size_t i = 0; i < size; ++i) source.push_back(item);
    EXPECT_EQ(source.is_inline(), size <= 2);
    EXPECT_EQ(item.use_count(), static_cast<long>(1 + size));

    Owners copy(source);
    EXPECT_EQ(copy, source);
    EXPECT_EQ(item.use_count(), static_cast<long>(1 + 2 * size));

    const std::shared_ptr<int>* block = source.data();
    Owners moved(std::move(source));
    EXPECT_EQ(moved, copy);
    EXPECT_TRUE(source.empty());
    EXPECT_TRUE(source.is_inline());
    EXPECT_EQ(moved.data() == block, size > 2);  // a spilled block is stolen
    EXPECT_EQ(item.use_count(), static_cast<long>(1 + 2 * size));

    // Assignment into a target that is inline, and into one that spilled.
    for (const std::size_t target_size : {std::size_t{1}, std::size_t{4}}) {
      Owners assigned;
      for (std::size_t i = 0; i < target_size; ++i) assigned.push_back(std::make_shared<int>(0));
      assigned = copy;
      EXPECT_EQ(assigned, copy);
      Owners move_assigned;
      for (std::size_t i = 0; i < target_size; ++i) {
        move_assigned.push_back(std::make_shared<int>(0));
      }
      move_assigned = std::move(assigned);
      EXPECT_EQ(move_assigned, copy);
      EXPECT_TRUE(assigned.empty());
    }
    EXPECT_EQ(item.use_count(), static_cast<long>(1 + 2 * size));
  }
  EXPECT_EQ(item.use_count(), 1);
}

TEST(SmallVector, SelfAssignmentKeepsTheElements) {
  for (const std::size_t size : {std::size_t{2}, std::size_t{6}}) {
    Small v;
    for (std::size_t i = 0; i < size; ++i) v.push_back(i);
    const Small expected = v;
    Small& alias = v;
    v = alias;
    EXPECT_EQ(v, expected);
    v = std::move(alias);
    EXPECT_EQ(v, expected);
  }
}

TEST(SmallVector, OrdersLikeStdVector) {
  // Short vectors over a small alphabet, so prefixes and ties are common.
  Rng rng(2006);
  const auto random_vector = [&rng] {
    std::vector<std::size_t> v(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    for (auto& x : v) x = static_cast<std::size_t>(rng.uniform_int(0, 2));
    return v;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::vector<std::size_t> a = random_vector();
    const std::vector<std::size_t> b = random_vector();
    const Small sa(a.begin(), a.end());
    const Small sb(b.begin(), b.end());
    EXPECT_EQ(sa < sb, a < b);
    EXPECT_EQ(sa == sb, a == b);
    EXPECT_EQ(sa <=> sb, a <=> b);
  }
}

TEST(SmallVector, KeysOrderedContainersInStdVectorOrder) {
  Rng rng(19);
  std::set<std::vector<std::size_t>> reference;
  std::set<Small> keys;
  std::map<Small, std::size_t> counts;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::size_t> v(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    for (auto& x : v) x = static_cast<std::size_t>(rng.uniform_int(0, 3));
    reference.insert(v);
    keys.insert(Small(v.begin(), v.end()));
    ++counts[Small(v.begin(), v.end())];
  }
  ASSERT_EQ(keys.size(), reference.size());
  ASSERT_EQ(counts.size(), reference.size());
  auto key = keys.begin();
  auto count = counts.begin();
  for (const auto& v : reference) {
    EXPECT_EQ(std::vector<std::size_t>(key->begin(), key->end()), v);
    EXPECT_EQ(count->first, *key);
    ++key;
    ++count;
  }
}

}  // namespace
}  // namespace moteur
