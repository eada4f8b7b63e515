// Unit tests for the support substrate: spinlock, sync queue, RNG,
// statistics, table rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/sync_queue.hpp"
#include "support/table.hpp"

namespace apm {
namespace {

TEST(SpinLock, ProvidesMutualExclusion) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          std::lock_guard guard(lock);
          ++counter;
        }
      });
    }
  }
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock lock;
  lock.lock();
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SyncQueue, FifoOrder) {
  SyncQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SyncQueue, BoundedTryPushFailsWhenFull) {
  SyncQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(SyncQueue, CloseDrainsThenReturnsNullopt) {
  SyncQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(SyncQueue, MpmcStressConservesItems) {
  SyncQueue<int> q(64);
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 5000;
  std::atomic<long> sum{0};
  std::atomic<int> consumed{0};
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(q.push(p * kPerProducer + i));
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        while (consumed.load() < kProducers * kPerProducer) {
          if (auto v = q.try_pop()) {
            sum.fetch_add(*v);
            consumed.fetch_add(1);
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
  }
  const long n = static_cast<long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent(77);
  Rng child = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child(), child2());
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(31);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(SampleStats, MomentsAndPercentiles) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), 2.0);
}

TEST(SampleStats, ClearResets) {
  SampleStats s;
  s.add(10.0);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"a", "bee"});
  t.add_row({"1", "2"});
  t.add_row({"33", "4"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("| a  | bee |"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,bee\n1,2\n33,4\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace apm
