// MatchService tests: K concurrent games over one shared pool lane
// complete and aggregate correctly; per-game results are independent of the
// worker count (fixed seeds); cross-game batch formation beats the starved
// single-game producer at the same threshold (the ISSUE-3 acceptance
// criterion); shutdown mid-game leaves no stuck threads. Plus the
// multi-producer AsyncBatchEvaluator extensions the service relies on:
// per-submitter tagging, the batch-fill histogram, and the re-flushing
// drain() that wakes blocked submitters.
//
// This binary runs under ThreadSanitizer in CI (alongside test_eval and
// test_local_tree_stress).

#include <gtest/gtest.h>

#include <thread>

#include "eval/gpu_model.hpp"
#include "games/gomoku.hpp"
#include "serve/match_service.hpp"

namespace apm {
namespace {

// Deterministic results (hash of the input state), zero compute: per-game
// move sequences depend only on seeds, never on batch composition. One
// uncached pool lane "net" whose threshold stays pinned (services built by
// pinned_config run no aggregate controller).
struct BatchRig {
  BatchRig(const Game& g, int threshold, int streams, double stale_us,
           double latency_us = 0.0)
      : eval(g.action_count(), g.encode_size(), latency_us),
        backend(eval, GpuTimingModel{}) {
    pool.add_model({.name = "net",
                    .backend = &backend,
                    .batch_threshold = threshold,
                    .num_streams = streams,
                    .stale_flush_us = stale_us,
                    .cache = false});
  }

  SyntheticEvaluator eval;
  SimGpuBackend backend;
  EvaluatorPool pool;
};

ServiceConfig pinned_config(int workers) {
  ServiceConfig sc;
  sc.workers = workers;
  sc.aggregate.enabled = false;
  return sc;
}

ServiceWorkload serial_workload(const Game& game, int playouts, int slots) {
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = slots;
  w.engine.mcts.num_playouts = playouts;
  w.engine.scheme = Scheme::kSerial;
  w.engine.adapt = false;
  return w;
}

TEST(MatchService, ConcurrentGamesCompleteOnSharedBatchQueue) {
  const Gomoku game = make_tictactoe();
  BatchRig rig(game, /*threshold=*/3, /*streams=*/2, /*stale_us=*/300.0);

  MatchService service(pinned_config(/*workers=*/4), rig.pool,
                       {serial_workload(game, /*playouts=*/24, /*slots=*/4)});
  service.enqueue(8);
  service.start();
  service.drain();

  const std::vector<GameRecord> records = service.take_completed();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].game_id, static_cast<int>(i));  // sorted by id
    EXPECT_TRUE(records[i].completed);
    EXPECT_GT(records[i].stats.moves, 4);  // TicTacToe lasts >= 5 moves
    EXPECT_EQ(records[i].stats.samples, records[i].stats.moves);
    EXPECT_EQ(records[i].samples.size(),
              static_cast<std::size_t>(records[i].stats.samples));
    // Tree reuse ran inside every game.
    EXPECT_EQ(records[i].stats.reused_moves, records[i].stats.moves - 1);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.games_completed, 8);
  EXPECT_EQ(stats.games_abandoned, 0);
  EXPECT_EQ(stats.games_pending, 0);
  EXPECT_EQ(stats.games_active, 0);
  EXPECT_GT(stats.eval_requests, 0u);
  EXPECT_GT(stats.batch.submitted, 0u);

  // Every request was tagged with its game slot, and the fill histogram
  // accounts for every dispatched request.
  std::size_t tagged = 0;
  for (const std::size_t n : stats.batch.tag_slots) tagged += n;
  EXPECT_EQ(stats.batch.untagged_slots, 0u);
  EXPECT_EQ(tagged, stats.batch.submitted);
  std::size_t histogram_requests = 0, histogram_batches = 0;
  for (std::size_t size = 0; size < stats.batch.fill_histogram.size();
       ++size) {
    histogram_requests += size * stats.batch.fill_histogram[size];
    histogram_batches += stats.batch.fill_histogram[size];
  }
  EXPECT_EQ(histogram_requests, stats.batch.submitted);
  EXPECT_EQ(histogram_batches, stats.batch.batches);

  service.stop();
}

TEST(MatchService, ResultsIndependentOfWorkerCount) {
  const Gomoku game = make_tictactoe();

  const auto play = [&](int workers) {
    BatchRig rig(game, /*threshold=*/3, /*streams=*/1, /*stale_us=*/200.0);
    MatchService service(pinned_config(workers), rig.pool,
                         {serial_workload(game, /*playouts=*/20, /*slots=*/3)});
    service.enqueue(6);
    service.start();
    service.drain();
    std::vector<GameRecord> records = service.take_completed();
    service.stop();
    return records;
  };

  const std::vector<GameRecord> one = play(1);
  const std::vector<GameRecord> three = play(3);
  ASSERT_EQ(one.size(), 6u);
  ASSERT_EQ(three.size(), 6u);
  for (std::size_t g = 0; g < one.size(); ++g) {
    EXPECT_EQ(one[g].game_id, three[g].game_id);
    EXPECT_EQ(one[g].stats.moves, three[g].stats.moves) << "game " << g;
    EXPECT_EQ(one[g].stats.winner, three[g].stats.winner) << "game " << g;
    ASSERT_EQ(one[g].samples.size(), three[g].samples.size()) << "game " << g;
    for (std::size_t s = 0; s < one[g].samples.size(); ++s) {
      EXPECT_EQ(one[g].samples[s].state, three[g].samples[s].state);
      EXPECT_EQ(one[g].samples[s].pi, three[g].samples[s].pi);
      EXPECT_FLOAT_EQ(one[g].samples[s].z, three[g].samples[s].z);
    }
  }
}

TEST(MatchService, CrossGameBatchFillBeatsSingleGame) {
  // The acceptance criterion: K >= 4 concurrent serial games sharing one
  // queue reach a higher mean batch fill than the single-game producer at
  // the same threshold. A lone serial game has exactly one request in
  // flight, so every one of its batches is a stale-flushed singleton.
  const Gomoku game(5, 4);

  const auto mean_fill = [&](int concurrent_games) {
    BatchRig rig(game, /*threshold=*/4, /*streams=*/1, /*stale_us=*/2000.0);
    MatchService service(
        pinned_config(concurrent_games), rig.pool,
        {serial_workload(game, /*playouts=*/48, concurrent_games)});
    service.enqueue(concurrent_games);
    service.start();
    service.drain();
    const ServiceStats stats = service.stats();
    service.stop();
    EXPECT_EQ(stats.games_completed, concurrent_games);
    return stats.mean_batch_fill;
  };

  const double single = mean_fill(1);
  const double cross = mean_fill(4);
  EXPECT_NEAR(single, 1.0, 0.01);  // starved: batches of one, always
  EXPECT_GT(cross, 1.1);           // cross-game batches actually formed
  EXPECT_GT(cross, single);
}

TEST(MatchService, StopMidGameLeavesNoStuckThreads) {
  // Long games + per-eval latency so stop() lands mid-game; the join must
  // come back (workers blocked on shared-queue futures are woken by the
  // stale-flush timer) and abandoned slots must be accounted for.
  const Gomoku game(9, 5);
  BatchRig rig(game, /*threshold=*/4, /*streams=*/1, /*stale_us=*/200.0,
               /*latency_us=*/50.0);

  MatchService service(pinned_config(/*workers=*/2), rig.pool,
                       {serial_workload(game, /*playouts=*/400, /*slots=*/2)});
  service.enqueue(4);
  service.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.games_active, 0);
  EXPECT_GT(stats.games_abandoned, 0);  // 9x9/400-playout games can't finish
  // Abandoned games are retired as completed=false records.
  const std::vector<GameRecord> records = service.take_completed();
  int abandoned = 0;
  for (const GameRecord& rec : records) abandoned += rec.completed ? 0 : 1;
  EXPECT_EQ(abandoned, stats.games_abandoned);
  // stop() is idempotent and safe to race (second call waits, no re-join).
  service.stop();
  // The shared queue stays serviceable after the shutdown.
  rig.pool.queue(0).drain();
  const BatchQueueStats qs = rig.pool.queue(0).stats();
  EXPECT_GT(qs.submitted, 0u);
}

TEST(AsyncBatch, DrainFlushesPartialBatchFromBlockedSubmitter) {
  // drain() must dispatch below-threshold batches while it waits: a
  // submitter blocked on its future (stale timer disabled) would otherwise
  // deadlock both itself and drain() — the multi-producer shutdown hazard.
  Gomoku g = make_tictactoe();
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SimGpuBackend backend(eval, GpuTimingModel{});
  AsyncBatchEvaluator queue(backend, /*threshold=*/8, /*streams=*/1,
                            /*stale_flush_us=*/0.0);

  std::vector<float> input(g.encode_size(), 0.25f);
  std::thread blocked([&] {
    auto fut = queue.submit_future(input.data(), /*tag=*/5);
    fut.get();  // resolves only if drain() flushes the partial batch
  });
  // drain() must run after the submission is queued: a drain that ran
  // first would find nothing to flush and leave the submitter waiting.
  while (queue.stats().submitted == 0) std::this_thread::yield();
  queue.drain();
  blocked.join();

  const BatchQueueStats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.batches, 1u);
  ASSERT_GT(stats.fill_histogram.size(), 1u);
  EXPECT_EQ(stats.fill_histogram[1], 1u);
  ASSERT_GT(stats.tag_slots.size(), 5u);
  EXPECT_EQ(stats.tag_slots[5], 1u);
  EXPECT_EQ(stats.untagged_slots, 0u);
}

}  // namespace
}  // namespace apm
