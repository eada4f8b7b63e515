// Sharded cross-game evaluation cache + in-flight coalescing (ISSUE 4).
//
// Three layers under test:
//  * EvalCache alone — set-associative placement, full-key verification,
//    CLOCK eviction, per-shard counters, concurrent hammering;
//  * AsyncBatchEvaluator with a cache attached — cache-hit fast path,
//    in-flight coalescing (a duplicate submission rides the primary's slot),
//    drain()/shutdown with waiters attached, multi-threaded submitters;
//  * MatchService end to end — with the cache on, the same games produce
//    bitwise-identical results with strictly fewer backend evaluations
//    (the ISSUE's acceptance criterion).
//
// This file runs under ThreadSanitizer in CI: the concurrency tests are the
// race-detection surface for the shard spinlocks and the coalescing
// registry.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "eval/eval_cache.hpp"
#include "eval/gpu_model.hpp"
#include "games/connect4.hpp"
#include "serve/match_service.hpp"
#include "support/rng.hpp"

namespace apm {
namespace {

// Deterministic output for a key, so any cached result can be verified
// against what the inserter must have stored.
EvalOutput output_for(std::uint64_t key, int actions = 4) {
  EvalOutput out;
  out.policy.resize(static_cast<std::size_t>(actions));
  std::uint64_t s = key;
  for (auto& p : out.policy) {
    p = static_cast<float>(splitmix64(s) >> 40);
  }
  out.value = static_cast<float>(static_cast<std::int64_t>(splitmix64(s) % 200) -
                                 100) /
              100.0f;
  return out;
}

// Counts backend invocations/samples so tests can assert how much inference
// the cache actually saved.
class CountingBackend final : public InferenceBackend {
 public:
  explicit CountingBackend(InferenceBackend& inner) : inner_(inner) {}

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  double compute_batch(const float* inputs, int n, EvalOutput* outs) override {
    batches_.fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(static_cast<std::size_t>(n),
                       std::memory_order_relaxed);
    return inner_.compute_batch(inputs, n, outs);
  }
  double model_batch_us(int n) const override {
    return inner_.model_batch_us(n);
  }

  std::size_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  std::size_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  InferenceBackend& inner_;
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> samples_{0};
};

// --- EvalCache alone --------------------------------------------------------

TEST(EvalCache, InsertLookupRoundTripIsBitwise) {
  EvalCache cache({.capacity = 64, .shards = 4, .ways = 4});
  const EvalOutput stored = output_for(42);
  cache.insert(42, stored);

  EvalOutput got;
  ASSERT_TRUE(cache.lookup(42, got));
  EXPECT_EQ(got.policy, stored.policy);
  EXPECT_EQ(got.value, stored.value);

  EXPECT_FALSE(cache.lookup(43, got));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GE(s.capacity, 64u);
}

TEST(EvalCache, CapacityRoundsUpToSetGeometry) {
  EvalCache cache({.capacity = 100, .shards = 8, .ways = 4});
  // 8 shards × ways 4 → 4 sets/shard (ceil(100/32)=4, pow2) → 128 entries.
  EXPECT_EQ(cache.capacity(), 128u);
}

TEST(EvalCache, FullKeyVerificationNeverAliasesPlacementCollisions) {
  // One shard, 16 sets of 2 ways: keys congruent mod 16 share a set but
  // must keep distinct results (the full 64-bit key is compared).
  EvalCache cache({.capacity = 32, .shards = 1, .ways = 2});
  const std::uint64_t k1 = 5, k2 = 5 + 16, k3 = 5 + 32;
  cache.insert(k1, output_for(k1));
  cache.insert(k2, output_for(k2));
  EvalOutput got;
  ASSERT_TRUE(cache.lookup(k1, got));
  EXPECT_EQ(got.policy, output_for(k1).policy);
  ASSERT_TRUE(cache.lookup(k2, got));
  EXPECT_EQ(got.policy, output_for(k2).policy);
  // k3 maps to the same set but was never inserted: a lookup must miss, not
  // return k1's or k2's entry.
  EXPECT_FALSE(cache.lookup(k3, got));
}

TEST(EvalCache, ClockEvictsWithinTheFullSet) {
  // One shard, one set of 2 ways. Three inserts overflow the set by one:
  // exactly one eviction, and the victim is the oldest entry (both had
  // spent their reference bit by the time the sweep ran).
  EvalCache cache({.capacity = 2, .shards = 1, .ways = 2});
  cache.insert(0, output_for(0));
  cache.insert(1, output_for(1));
  cache.insert(2, output_for(2));
  EvalOutput got;
  EXPECT_FALSE(cache.lookup(0, got));
  EXPECT_TRUE(cache.lookup(1, got));
  EXPECT_TRUE(cache.lookup(2, got));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(EvalCache, ClockGivesReferencedEntriesASecondChance) {
  // One shard, one set of 4 ways. Fill, overflow once (sweeps every
  // reference bit clear, evicts slot 0, hand now points at slot 1 = key 2).
  EvalCache cache({.capacity = 4, .shards = 1, .ways = 4});
  for (std::uint64_t k = 1; k <= 5; ++k) cache.insert(k, output_for(k));
  EvalOutput got;
  ASSERT_FALSE(cache.lookup(1, got));  // evicted by the overflow
  // Reference the entry under the hand: the next eviction must skip it
  // (second chance) and take its unreferenced neighbour instead.
  ASSERT_TRUE(cache.lookup(2, got));
  cache.insert(6, output_for(6));
  EXPECT_TRUE(cache.lookup(2, got));   // survived: referenced
  EXPECT_FALSE(cache.lookup(3, got));  // victim: next unreferenced way
}

TEST(EvalCache, ClearInvalidatesEverythingButKeepsCounters) {
  EvalCache cache({.capacity = 16, .shards = 2, .ways = 2});
  cache.insert(7, output_for(7));
  cache.insert(8, output_for(8));
  cache.clear();
  EvalOutput got;
  EXPECT_FALSE(cache.lookup(7, got));
  EXPECT_FALSE(cache.lookup(8, got));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.inserts, 2u);  // history survives the invalidation
}

TEST(EvalCache, SlabPolicyReadsBackBitwise) {
  // One shard, one set of 2 ways, 81-wide policies (Gomoku 9x9): every
  // read comes out of the shard's slab row, across an insert, a refresh
  // in place, an eviction that reuses a row, and a clear().
  EvalCache cache({.capacity = 2, .shards = 1, .ways = 2});
  const auto expect_bitwise = [&](std::uint64_t key, const EvalOutput& want) {
    EvalOutput got;
    ASSERT_TRUE(cache.lookup(key, got)) << "key " << key;
    ASSERT_EQ(got.policy.size(), want.policy.size());
    EXPECT_EQ(std::memcmp(got.policy.data(), want.policy.data(),
                          want.policy.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(&got.value, &want.value, sizeof(float)), 0);
  };
  cache.insert(1, output_for(1, 81));
  cache.insert(2, output_for(2, 81));
  expect_bitwise(1, output_for(1, 81));
  expect_bitwise(2, output_for(2, 81));

  EvalOutput refreshed = output_for(101, 81);
  cache.insert(1, refreshed);  // refresh: same key, new result
  expect_bitwise(1, refreshed);
  expect_bitwise(2, output_for(2, 81));

  cache.insert(3, output_for(3, 81));  // evicts one of {1, 2}
  EXPECT_EQ(cache.stats().evictions, 1u);
  expect_bitwise(3, output_for(3, 81));
  EvalOutput got;
  if (cache.lookup(1, got)) {
    expect_bitwise(1, refreshed);
  } else {
    expect_bitwise(2, output_for(2, 81));
  }

  cache.clear();
  EXPECT_FALSE(cache.lookup(3, got));
  cache.insert(4, output_for(4, 81));
  expect_bitwise(4, output_for(4, 81));
}

TEST(EvalCacheDeathTest, PolicyWidthMismatchFailsACheck) {
  // The first insert sizes the shard's slab rows; one cache serves one
  // model, so a policy of another width is a wiring error.
  EXPECT_DEATH(
      {
        EvalCache cache({.capacity = 8, .shards = 1, .ways = 2});
        cache.insert(1, output_for(1, 7));
        cache.insert(2, output_for(2, 9));
      },
      "one width");
}

TEST(EvalCache, ConcurrentMixedHammerStaysConsistent) {
  // Many threads look up / insert a small key space (forcing set conflicts
  // and evictions) while another clears periodically. Every hit must carry
  // exactly the inserter's bytes for that key — a torn or aliased entry
  // fails the comparison; TSan guards the shard locks.
  EvalCache cache({.capacity = 64, .shards = 4, .ways = 2});
  constexpr int kThreads = 4, kOps = 3000;
  constexpr std::uint64_t kKeySpace = 97;
  std::atomic<std::size_t> verified_hits{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &verified_hits, t] {
        Rng rng(1000 + static_cast<std::uint64_t>(t));
        EvalOutput got;
        for (int i = 0; i < kOps; ++i) {
          const std::uint64_t key = rng() % kKeySpace + 1;
          if (cache.lookup(key, got)) {
            const EvalOutput want = output_for(key);
            ASSERT_EQ(got.policy, want.policy);
            ASSERT_EQ(got.value, want.value);
            verified_hits.fetch_add(1, std::memory_order_relaxed);
          } else {
            cache.insert(key, output_for(key));
          }
        }
      });
    }
    threads.emplace_back([&cache] {
      for (int i = 0; i < 10; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        cache.clear();
      }
    });
  }
  EXPECT_GT(verified_hits.load(), 0u);
  const CacheStats s = cache.stats();
  EXPECT_LE(s.entries, s.capacity);
  EXPECT_EQ(s.misses, s.lookups - s.hits);
}

// --- AsyncBatchEvaluator with a cache ---------------------------------------

TEST(CachedQueue, ResidentHashCompletesWithoutASlot) {
  SyntheticEvaluator eval(5, 2);
  SimGpuBackend sim(eval, GpuTimingModel{});
  CountingBackend backend(sim);
  EvalCache cache({.capacity = 64, .shards = 2, .ways = 2});
  AsyncBatchEvaluator queue(backend, /*threshold=*/2, /*streams=*/1,
                            /*stale_flush_us=*/500.0);
  queue.set_cache(&cache);

  const float input[2] = {1, 2};
  SubmitOutcome how = SubmitOutcome::kQueued;
  auto first = queue.submit_future(input, -1, /*hash=*/99, &how);
  EXPECT_EQ(how, SubmitOutcome::kQueued);
  queue.drain();
  const EvalOutput a = first.get();

  auto second = queue.submit_future(input, -1, 99, &how);
  EXPECT_EQ(how, SubmitOutcome::kCacheHit);
  const EvalOutput b = second.get();  // ready immediately, no backend work
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(backend.samples(), 1u);

  const BatchQueueStats s = queue.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.coalesced, 0u);
}

TEST(CachedQueue, DuplicateInFlightCoalescesOntoOneSlot) {
  SyntheticEvaluator eval(5, 2);
  SimGpuBackend sim(eval, GpuTimingModel{});
  CountingBackend backend(sim);
  EvalCache cache({.capacity = 64, .shards = 2, .ways = 2});
  AsyncBatchEvaluator queue(backend, /*threshold=*/8, /*streams=*/1,
                            /*stale_flush_us=*/1e5);
  queue.set_cache(&cache);

  const float input[2] = {3, 4};
  SubmitOutcome how1, how2, how3;
  auto f1 = queue.submit_future(input, -1, 7, &how1);
  auto f2 = queue.submit_future(input, -1, 7, &how2);
  auto f3 = queue.submit_future(input, -1, 7, &how3);
  EXPECT_EQ(how1, SubmitOutcome::kQueued);
  EXPECT_EQ(how2, SubmitOutcome::kCoalesced);
  EXPECT_EQ(how3, SubmitOutcome::kCoalesced);

  queue.flush();
  const EvalOutput a = f1.get(), b = f2.get(), c = f3.get();
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.policy, c.policy);
  EXPECT_EQ(backend.samples(), 1u);  // one backend eval served all three

  const BatchQueueStats s = queue.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.batches, 1u);
  // Satellite: waiters must not be double-counted in the fill histogram —
  // the dispatched batch holds ONE unique position, not three requests.
  ASSERT_GT(s.fill_histogram.size(), 1u);
  EXPECT_EQ(s.fill_histogram[1], 1u);
  EXPECT_EQ(s.max_batch, 1u);
  EXPECT_EQ(s.mean_batch, 1.0);

  // The completion populated the cache: a fourth request is a plain hit.
  SubmitOutcome how4;
  auto f4 = queue.submit_future(input, -1, 7, &how4);
  EXPECT_EQ(how4, SubmitOutcome::kCacheHit);
  EXPECT_EQ(f4.get().policy, a.policy);
}

TEST(CachedQueue, DrainWakesWaitersAttachedToDispatchedRequest) {
  // Satellite: drain() must flush a forming batch that carries coalesced
  // waiters and not return before those waiters' callbacks have run. The
  // stale timer is set far beyond the test so only drain() can dispatch.
  SyntheticEvaluator eval(5, 2);
  SimGpuBackend sim(eval, GpuTimingModel{});
  CountingBackend backend(sim);
  EvalCache cache({.capacity = 64, .shards = 2, .ways = 2});
  AsyncBatchEvaluator queue(backend, /*threshold=*/64, /*streams=*/2,
                            /*stale_flush_us=*/1e5);
  queue.set_cache(&cache);

  std::atomic<int> done{0};
  const float input[2] = {5, 6};
  for (int i = 0; i < 3; ++i) {
    queue.submit(
        input, [&done](EvalOutput) { done.fetch_add(1); }, -1, /*hash=*/11);
  }
  queue.submit(
      input, [&done](EvalOutput) { done.fetch_add(1); }, -1, /*hash=*/12);
  EXPECT_EQ(done.load(), 0);  // nothing dispatched yet (threshold 64)
  queue.drain();
  EXPECT_EQ(done.load(), 4);
  const BatchQueueStats s = queue.stats();
  EXPECT_EQ(s.submitted, 2u);  // two unique positions
  EXPECT_EQ(s.coalesced, 2u);
}

TEST(CachedQueue, DestructorDrainsWithWaitersAttached) {
  std::atomic<int> done{0};
  {
    SyntheticEvaluator eval(5, 2);
    SimGpuBackend sim(eval, GpuTimingModel{});
    // The cache is constructed before the queue: the queue's destructor
    // drains (completing the waiter below), which inserts into the cache —
    // the cache must outlive it.
    EvalCache cache({.capacity = 32, .shards = 1, .ways = 2});
    AsyncBatchEvaluator queue(sim, /*threshold=*/32, /*streams=*/1,
                              /*stale_flush_us=*/1e5);
    queue.set_cache(&cache);
    const float input[2] = {7, 8};
    queue.submit(
        input, [&done](EvalOutput) { done.fetch_add(1); }, -1, 21);
    queue.submit(
        input, [&done](EvalOutput) { done.fetch_add(1); }, -1, 21);
    // ~AsyncBatchEvaluator runs drain() — a stop with a waiter attached.
  }
  EXPECT_EQ(done.load(), 2);
}

TEST(CachedQueue, ConcurrentSubmittersGetExactResults) {
  // The TSan centrepiece: several threads hammer a small hash space through
  // one cached queue (hits, coalesces, evictions and plain batches all
  // interleave), one thread drains concurrently. Every result — cached,
  // coalesced, or fresh — must be byte-identical to the backend's output
  // for that input, and the dedupe identity must hold on the counters.
  SyntheticEvaluator eval(5, 2);
  SimGpuBackend sim(eval, GpuTimingModel{});
  CountingBackend backend(sim);
  // Tiny cache: the key space (64) overflows it, so eviction churn runs
  // concurrently with hits and coalesces.
  EvalCache cache({.capacity = 32, .shards = 4, .ways = 2});
  AsyncBatchEvaluator queue(backend, /*threshold=*/4, /*streams=*/2,
                            /*stale_flush_us=*/300.0);
  queue.set_cache(&cache);

  constexpr int kThreads = 4, kPerThread = 400;
  constexpr std::uint64_t kKeySpace = 64;
  std::atomic<int> done{0};
  std::atomic<bool> mismatch{false};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(31 + static_cast<std::uint64_t>(t));
        SyntheticEvaluator reference(5, 2);
        EvalOutput want;
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t key = rng() % kKeySpace + 1;
          const float input[2] = {static_cast<float>(key),
                                  static_cast<float>(key * 3)};
          reference.evaluate(input, want);
          auto fut = queue.submit_future(input, t, key);
          const EvalOutput got = fut.get();
          if (got.policy != want.policy || got.value != want.value) {
            mismatch.store(true);
          }
          done.fetch_add(1);
        }
      });
    }
    threads.emplace_back([&queue] {
      for (int i = 0; i < 20; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        queue.drain();
      }
    });
  }
  queue.drain();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(done.load(), kThreads * kPerThread);

  const BatchQueueStats s = queue.stats();
  // Every request was served exactly one way.
  EXPECT_EQ(s.submitted + s.cache_hits + s.coalesced,
            static_cast<std::size_t>(kThreads * kPerThread));
  // Dedupe must have engaged (64 keys, 1600 requests) and every unique
  // submission reached the backend.
  EXPECT_GT(s.cache_hits + s.coalesced, 0u);
  EXPECT_EQ(backend.samples(), s.submitted);
  EXPECT_GT(cache.stats().hits, 0u);
}

// --- MatchService end to end ------------------------------------------------

struct ServiceRun {
  std::vector<GameRecord> records;
  ServiceStats stats;
  std::size_t backend_samples = 0;
};

// Serial-engine Connect4 workload on pool lane "net" (fixed seeds,
// adaptation off, so per-game results are a function of the game id).
ServiceWorkload connect4_workload(const Game& game, int playouts) {
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = 4;
  w.engine.mcts.num_playouts = playouts;
  w.engine.scheme = Scheme::kSerial;
  w.engine.adapt = false;
  return w;
}

// Plays `games` Connect4 games on a deterministic 4-slot service over one
// pool lane (threshold pinned at 4), optionally with an eval cache in front
// of the lane queue.
ServiceRun run_service(int games, bool cached) {
  const Connect4 game;
  SyntheticEvaluator eval(game.action_count(), game.encode_size());
  SimGpuBackend sim(eval, GpuTimingModel{});
  CountingBackend backend(sim);
  EvaluatorPool pool;
  pool.add_model({.name = "net",
                  .backend = &backend,
                  .batch_threshold = 4,
                  .num_streams = 2,
                  .stale_flush_us = 800.0,
                  .cache = cached,
                  .cache_cfg = {.capacity = 1 << 12, .shards = 8, .ways = 4}});

  ServiceConfig sc;
  sc.workers = 4;
  sc.aggregate.enabled = false;
  ServiceWorkload w = connect4_workload(game, 24);
  w.self_play.max_moves = 20;

  ServiceRun run;
  {
    MatchService service(sc, pool, {w});
    service.enqueue(games);
    service.start();
    service.drain();
    run.stats = service.stats();
    run.records = service.take_completed();
    service.stop();
  }
  run.backend_samples = backend.samples();
  return run;
}

TEST(CachedService, SameGamesFewerEvaluations) {
  // The ISSUE acceptance criterion: at K >= 4 concurrent games with fixed
  // seeds, the cache produces a nonzero hit rate and strictly fewer backend
  // evaluations, while every game's outcome and samples stay identical —
  // exact 64-bit coalescing must not change a single move.
  const int kGames = 8;
  const ServiceRun off = run_service(kGames, /*cached=*/false);
  const ServiceRun on = run_service(kGames, /*cached=*/true);

  ASSERT_EQ(off.records.size(), static_cast<std::size_t>(kGames));
  ASSERT_EQ(on.records.size(), static_cast<std::size_t>(kGames));
  for (int g = 0; g < kGames; ++g) {
    const GameRecord& a = off.records[static_cast<std::size_t>(g)];
    const GameRecord& b = on.records[static_cast<std::size_t>(g)];
    ASSERT_EQ(a.game_id, b.game_id);
    EXPECT_EQ(a.stats.winner, b.stats.winner) << "game " << g;
    EXPECT_EQ(a.stats.moves, b.stats.moves) << "game " << g;
    ASSERT_EQ(a.samples.size(), b.samples.size()) << "game " << g;
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
      EXPECT_EQ(a.samples[i].pi, b.samples[i].pi) << "game " << g;
      EXPECT_EQ(a.samples[i].z, b.samples[i].z) << "game " << g;
    }
  }

  EXPECT_GT(on.stats.cache_hits + on.stats.coalesced_evals, 0u);
  EXPECT_GT(on.stats.cache_hit_rate, 0.0);
  EXPECT_LT(on.backend_samples, off.backend_samples);
  EXPECT_GT(on.stats.cache.hits, 0u);
  // Same demand either way; the cache only changes how it is served.
  EXPECT_EQ(on.stats.eval_requests, off.stats.eval_requests);
}

TEST(CachedService, StopMidGameWithCacheDoesNotDeadlock) {
  const Connect4 game;
  SyntheticEvaluator eval(game.action_count(), game.encode_size(),
                          /*latency_us=*/50.0);
  SimGpuBackend sim(eval, GpuTimingModel{});
  EvaluatorPool pool;
  pool.add_model({.name = "net",
                  .backend = &sim,
                  .batch_threshold = 4,
                  .num_streams = 2,
                  .stale_flush_us = 800.0,
                  .cache_cfg = {.capacity = 1 << 10, .shards = 4, .ways = 4}});

  ServiceConfig sc;
  sc.workers = 4;
  sc.aggregate.enabled = false;
  MatchService service(sc, pool, {connect4_workload(game, 48)});
  service.enqueue(64);
  service.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.stop();  // waiters may be attached mid-move: must not hang
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.games_active, 0);
}

}  // namespace
}  // namespace apm
