#include "mcts/local_tree.hpp"

#include <vector>

#include "mcts/selection.hpp"
#include "mcts/transposition.hpp"
#include "support/sync_queue.hpp"
#include "support/timer.hpp"

namespace apm {
namespace {

// A finished node evaluation travelling back to the master thread.
struct Completion {
  NodeId node = kNullNode;
  std::vector<int> legal;  // captured at selection time (the master does
                           // not retain the game state of the leaf)
  EvalOutput out;
  std::uint64_t key = 0;     // leaf eval_key, for the TT store
  std::int32_t depth = 0;
  bool announced = false;    // a TT in-flight mark to release at store time
};

}  // namespace

LocalTreeMcts::LocalTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                             SearchTree* shared_tree)
    : LocalTreeMcts(cfg, workers, SearchQueue(eval, workers), shared_tree) {}

LocalTreeMcts::LocalTreeMcts(MctsConfig cfg, int workers, SearchQueue queue,
                             SearchTree* shared_tree)
    : MctsSearch(cfg, shared_tree, std::move(queue)), workers_(workers) {
  APM_CHECK(workers >= 1);
}

SearchResult LocalTreeMcts::search(const Game& env) {
  SearchMetrics metrics;
  const bool reuse = begin_move(metrics);
  InTreeOps ops(tree_, cfg_);
  metrics.workers = workers_;
  Timer move_timer;

  const BatchQueueStats batch_before = batch_.stats();

  prepare_root(env, reuse);

  SyncQueue<Completion> completions;
  std::vector<float> input(env.encode_size());
  TtView tt_scratch;

  const int total = cfg_.num_playouts;
  int issued = 0;     // rollouts started (selection done)
  int completed = 0;  // rollouts fully backed up
  int in_flight = 0;  // evaluation requests outstanding

  // Applies one completion: expansion + backup on the master thread.
  auto process = [&](Completion&& c) {
    Timer phase;
    ops.note_eval(c.node, c.key, c.out.value);
    ops.expand_from_legal(c.node, c.legal, c.out.policy);
    ++metrics.expansions;
    if (tt_ != nullptr) {
      tt_store_expansion(tt_, tree_, c.node, c.key, c.out.value, c.depth,
                         c.announced);
      ++metrics.tt_stores;
    }
    metrics.expand_seconds += phase.elapsed_seconds();

    phase.reset();
    ops.backup(c.node, c.out.value);
    metrics.backup_seconds += phase.elapsed_seconds();

    --in_flight;
    ++completed;
  };

  auto wait_for_completion = [&] {
    Timer wait;
    auto c = completions.pop();
    metrics.eval_seconds += wait.elapsed_seconds();
    APM_CHECK_MSG(c.has_value(), "completion queue closed prematurely");
    process(std::move(*c));
  };

  while (completed < total) {
    // Opportunistically drain finished evaluations to keep the tree fresh.
    while (auto c = completions.try_pop()) process(std::move(*c));

    const bool pool_full = in_flight >= workers_;
    if (issued >= total || pool_full) {
      if (in_flight > 0) {
        wait_for_completion();
      }
      continue;
    }

    // One selection on the master thread.
    auto game = env.clone();
    Timer phase;
    const DescendOutcome outcome =
        ops.descend(*game, CollisionPolicy::kBackout);
    metrics.select_seconds += phase.elapsed_seconds();
    metrics.max_depth = std::max(metrics.max_depth, outcome.depth);
    metrics.sum_depth += outcome.depth;

    switch (outcome.status) {
      case DescendStatus::kCollision:
        // The path leads into an evaluation still in flight; apply a
        // result first so the tree can move on.
        ++metrics.expansion_collisions;
        wait_for_completion();
        break;
      case DescendStatus::kTerminal: {
        ++metrics.terminal_rollouts;
        phase.reset();
        ops.backup(outcome.node, game->terminal_value());
        metrics.backup_seconds += phase.elapsed_seconds();
        ++issued;
        ++completed;
        break;
      }
      case DescendStatus::kLeaf: {
        const std::uint64_t key = game->eval_key();
        bool announced = false;
        if (tt_ != nullptr) {
          // Batched probe pass (Cazenave): resolve against the TT before
          // the position ever reaches the evaluation queue. A hit expands
          // and backs up synchronously on the master — no in-flight slot,
          // no batch occupancy. A miss is announced so a sibling rollout
          // reaching the same position coalesces on the queue layer
          // (kPending here, kCoalesced there) instead of double-counting.
          Timer tt_phase;
          ++metrics.tt_probes;
          float tt_value = 0.0f;
          const TtProbeResult tr =
              tt_probe_and_graft(tt_, ops, outcome.node, key, tt_scratch,
                                 &tt_value, &announced);
          if (tr == TtProbeResult::kHit) {
            ++metrics.tt_grafts;
            metrics.expand_seconds += tt_phase.elapsed_seconds();
            tt_phase.reset();
            ops.backup(outcome.node, tt_value);
            metrics.backup_seconds += tt_phase.elapsed_seconds();
            ++issued;
            ++completed;
            break;
          }
          if (tr == TtProbeResult::kPending) ++metrics.tt_pending;
          metrics.expand_seconds += tt_phase.elapsed_seconds();
        }
        // Sending the request (encode, legal actions, submit) is evaluation
        // time, as in SharedTree's eval phase; waits for completions add
        // the rest. Untimed, it left LocalTree's phases short of its move.
        Timer send;
        game->encode(input.data());
        std::vector<int> legal;
        game->legal_actions(legal);
        ++metrics.eval_requests;
        ++issued;
        ++in_flight;
        const NodeId node_id = outcome.node;
        const std::int32_t depth = outcome.depth;
        // A cache hit runs the callback synchronously right here: the
        // completion lands in the queue and is processed on the next loop
        // pass — the master never blocks on a resident position. A
        // transposition *within this tree* (two nodes, same position)
        // coalesces onto its own in-flight request the same way a
        // cross-game duplicate does.
        const SubmitOutcome how = batch_.submit(
            input.data(),
            [&completions, node_id, key, depth, announced,
             legal = std::move(legal)](EvalOutput out) mutable {
              Completion done;
              done.node = node_id;
              done.legal = std::move(legal);
              done.out = std::move(out);
              done.key = key;
              done.depth = depth;
              done.announced = announced;
              completions.push(std::move(done));
            },
            batch_tag(), key);
        if (how == SubmitOutcome::kCacheHit) ++metrics.cache_hits;
        if (how == SubmitOutcome::kCoalesced) ++metrics.coalesced_evals;
        metrics.eval_seconds += send.elapsed_seconds();
        break;
      }
    }

    // Tail flush: every remaining request has been issued, so a partial
    // batch can never fill to the threshold on its own. Sole producer
    // only — on a tagged multi-producer queue other games keep filling
    // batches and the stale timer bounds the stragglers' wait, while a
    // flush here would dispatch those games' forming batches early.
    if (batch_tag() < 0 && issued >= total && in_flight > 0) batch_.flush();
  }

  APM_CHECK(in_flight == 0);

  // The tail flush above already dispatched our stragglers, so no drain is
  // needed before reading the sole-producer delta.
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
