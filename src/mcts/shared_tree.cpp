#include "mcts/shared_tree.hpp"

#include <thread>
#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "support/timer.hpp"

namespace apm {

SharedTreeMcts::SharedTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                               SearchTree* shared_tree, Scheme label)
    : SharedTreeMcts(cfg, workers, SearchQueue(eval, 0), shared_tree, label) {}

SharedTreeMcts::SharedTreeMcts(MctsConfig cfg, int workers, SearchQueue queue,
                               SearchTree* shared_tree, Scheme label)
    : MctsSearch(cfg, shared_tree, std::move(queue)),
      workers_(workers),
      label_(label) {
  APM_CHECK(workers >= 1);
  APM_CHECK(label == Scheme::kSharedTree ||
            (label == Scheme::kSerial && workers == 1));
  // Leaf requests never flush, so with one in-flight request a
  // below-threshold batch only ever dispatches via the stale timer or a
  // concurrent producer. Require the timer — without it this configuration
  // is a silent deadlock, not a slow path. The private queue is exempt:
  // it stays at threshold 1, where every request completes its own batch.
  APM_CHECK_MSG(workers > 1 || batch_.stale_flush_us() > 0.0 ||
                    queue_.owned(),
                "one-worker search over a batch queue needs the stale-flush "
                "timer (a single in-flight request cannot fill a batch)");
}

void SharedTreeMcts::worker_loop(const Game& env,
                                 std::atomic<int>& playout_counter,
                                 SearchMetrics& stats) {
  InTreeOps ops(tree_, cfg_);
  std::vector<float> input(env.encode_size());
  EvalOutput out;
  TtView tt_scratch;  // per-worker: probe results never cross threads

  while (playout_counter.fetch_add(1, std::memory_order_acq_rel) <
         cfg_.num_playouts) {
    auto game = env.clone();
    Timer phase;
    const DescendOutcome outcome = ops.descend(*game, CollisionPolicy::kWait);
    stats.select_seconds += phase.elapsed_seconds();
    stats.max_depth = std::max(stats.max_depth, outcome.depth);
    stats.sum_depth += outcome.depth;

    if (outcome.status == DescendStatus::kTerminal) {
      ++stats.terminal_rollouts;
      phase.reset();
      ops.backup(outcome.node, game->terminal_value());
      stats.backup_seconds += phase.elapsed_seconds();
      continue;
    }

    const std::uint64_t key = game->eval_key();
    bool announced = false;
    if (tt_ != nullptr) {
      phase.reset();
      ++stats.tt_probes;
      float tt_value = 0.0f;
      const TtProbeResult tr = tt_probe_and_graft(
          tt_, ops, outcome.node, key, tt_scratch, &tt_value, &announced);
      if (tr == TtProbeResult::kHit) {
        // Grafted from the table: no encode, no eval request. The graft is
        // expansion work, so it lands in expand_seconds.
        ++stats.tt_grafts;
        stats.expand_seconds += phase.elapsed_seconds();
        phase.reset();
        ops.backup(outcome.node, tt_value);
        stats.backup_seconds += phase.elapsed_seconds();
        continue;
      }
      if (tr == TtProbeResult::kPending) ++stats.tt_pending;
      stats.expand_seconds += phase.elapsed_seconds();
    }

    phase.reset();
    game->encode(input.data());
    // Leaf requests never flush: batches form across workers (threshold
    // crossing) or across games sharing the queue, else via the stale
    // timer. The worker whose request completes a batch computes it on its
    // own thread, so N workers keep N cores on inference.
    SubmitOutcome how = SubmitOutcome::kQueued;
    out = batch_.evaluate(input.data(), batch_tag(), key, &how);
    if (how == SubmitOutcome::kCacheHit) ++stats.cache_hits;
    if (how == SubmitOutcome::kCoalesced) ++stats.coalesced_evals;
    ++stats.eval_requests;
    stats.eval_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.note_eval(outcome.node, key, out.value);
    ops.expand(outcome.node, *game, out.policy);
    ++stats.expansions;
    if (tt_ != nullptr) {
      // Edges are immutable once published; the store reads them without
      // tree locks and serialises on its bucket lock.
      tt_store_expansion(tt_, tree_, outcome.node, key, out.value,
                         outcome.depth, announced);
      ++stats.tt_stores;
    }
    stats.expand_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.backup(outcome.node, out.value);
    stats.backup_seconds += phase.elapsed_seconds();
  }
}

SearchResult SharedTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  metrics.workers = workers_;
  Timer move_timer;

  const BatchQueueStats batch_before = batch_.stats();

  prepare_root(env, reuse);

  std::atomic<int> playout_counter{0};
  std::vector<SearchMetrics> stats(static_cast<std::size_t>(workers_));
  {
    // Worker 0 is the calling thread, so a serial search starts no thread.
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w) {
      helpers.emplace_back([this, &env, &playout_counter, &stats, w] {
        worker_loop(env, playout_counter, stats[w]);
      });
    }
    worker_loop(env, playout_counter, stats[0]);
  }  // joins the helpers

  for (const SearchMetrics& s : stats) metrics.add_rollouts(s);
  // Sole producer: settle the queue before reading the delta. On a tagged
  // multi-producer queue drain() would stall on other games' traffic — and
  // is unnecessary, since our workers block on their own requests, so
  // nothing of ours is still in flight here.
  if (batch_tag() < 0) batch_.drain();
  finish_batch_metrics(batch_, batch_before, metrics, reuse);

  metrics.playouts = cfg_.num_playouts;
  metrics.move_seconds = move_timer.elapsed_seconds();
  metrics.nodes = tree_.node_count();
  metrics.edges = tree_.edge_count();

  SearchResult result = extract_result(tree_, env.action_count());
  result.metrics = metrics;
  return result;
}

}  // namespace apm
