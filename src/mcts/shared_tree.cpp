#include "mcts/shared_tree.hpp"

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

SharedTreeMcts::~SharedTreeMcts() {
  {
    std::lock_guard lock(crew_mu_);
    shutdown_ = true;
  }
  move_posted_.notify_all();
  for (std::thread& helper : crew_) helper.join();
}

void SharedTreeMcts::helper_loop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(crew_mu_);
      move_posted_.wait(lock,
                        [&] { return shutdown_ || move_seq_ != seen; });
      if (shutdown_) return;
      seen = move_seq_;
    }
    worker_loop(*move_env_, move_stats_[static_cast<std::size_t>(w)]);
    bool last = false;
    {
      std::lock_guard lock(crew_mu_);
      last = --helpers_busy_ == 0;
    }
    if (last) move_done_.notify_one();
  }
}

void SharedTreeMcts::worker_loop(const Game& env, SearchMetrics& stats) {
  InTreeOps ops(tree_, cfg_);
  std::vector<float> input(env.encode_size());
  EvalOutput out;
  TtView tt_scratch;  // per-worker: probe results never cross threads

  while (playout_counter_.fetch_add(1, std::memory_order_acq_rel) <
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

  // Worker 0 is the calling thread, so a serial search starts no thread.
  if (workers_ > 1 && crew_.empty()) {
    crew_.reserve(static_cast<std::size_t>(workers_ - 1));
    for (int w = 1; w < workers_; ++w) {
      crew_.emplace_back([this, w] { helper_loop(w); });
    }
  }
  {
    std::lock_guard lock(crew_mu_);
    move_env_ = &env;
    playout_counter_.store(0, std::memory_order_relaxed);
    move_stats_.assign(static_cast<std::size_t>(workers_), SearchMetrics{});
    helpers_busy_ = workers_ - 1;
    ++move_seq_;
  }
  move_posted_.notify_all();
  worker_loop(env, move_stats_[0]);
  {
    std::unique_lock lock(crew_mu_);
    move_done_.wait(lock, [this] { return helpers_busy_ == 0; });
  }

  for (const SearchMetrics& s : move_stats_) metrics.add_rollouts(s);
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
