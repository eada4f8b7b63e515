#pragma once
// Shared-tree parallel DNN-MCTS (Algorithm 2, §3.1.1), and serial search.
//
// N workers share one tree. Each worker runs complete rollouts: select
// (virtual loss marks the path so workers diverge), evaluate, expand,
// backup. Tree mutation uses per-edge atomics and per-node spinlocks.
// Worker 0 runs on the calling thread and N−1 helper threads join it, so
// one search() starts N−1 threads.
//
// Serial search is this driver at N=1, labelled Scheme::kSerial: it starts
// no thread, and with one worker no rollout is ever unobserved, so each
// virtual loss is applied and reverted inside a single rollout (the
// degenerate case of WU-UCT). It is the reference every parallel scheme
// must agree with, and the baseline of the paper's §2.1 profile ("tree-
// based search accounts for more than 85% of the total runtime"). Over a
// batch queue a lone serial game is starved: one in-flight request can
// never fill a batch, so every evaluation waits for the stale-flush timer.
// That is the single-game starvation MatchService fixes — K concurrent
// serial games share one queue and their single requests coalesce into
// cross-game batches. A one-worker search over a queue that can hold a
// partial batch therefore requires the stale-flush timer; the search
// result is the same either way.
//
// Evaluation: workers block in AsyncBatchEvaluator::evaluate(), and the
// worker whose request completes a batch runs it on its own thread.
//  * Over a bare Evaluator the driver wraps it in a private threshold-1
//    queue with no stream thread (SearchQueue), so every worker evaluates
//    on its own thread ("each worker is assigned a separate CPU thread for
//    performing one node evaluation", §5.3).
//  * Over an accelerator queue the caller sets the threshold to N, since
//    "the communication batch size is always set to the number of threads"
//    for the shared-tree method (§3.3). On a CPU lane N workers thus
//    compute on N cores as in Eq. 3 instead of queueing behind the lane's
//    streams.
//
// Lock discipline verdict (bench/ablation_locks before the coarse mode was
// deleted; 400 playouts of Gomoku 9x9 at a 30 µs synthetic evaluation, move
// time in ms, best of 3 runs on a 4-core host):
//
//   lock discipline                  N=2   N=4   N=8
//   per-node spinlocks + atomics     8.2   4.3   4.3
//   one coarse tree lock             8.0   4.2   5.0
//
// Both are evaluation-bound and tie at N <= 4. At N=8 the coarse lock,
// which serialises the in-tree work of oversubscribed workers, was slower
// in all three runs (5.0-5.8 vs 4.3-4.8 ms), though single runs swing
// either way by tens of percent. Nothing favoured the coarse lock beyond
// noise, so per-node locking is the one kept.

#include "mcts/search.hpp"

namespace apm {

class SharedTreeMcts final : public MctsSearch {
 public:
  // `label` is the scheme this driver reports: kSharedTree, or kSerial for
  // a one-worker driver (make_search(Scheme::kSerial, ...) builds that).
  //
  // Over a bare evaluator, wrapped in a private queue with no stream.
  SharedTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                 SearchTree* shared_tree = nullptr,
                 Scheme label = Scheme::kSharedTree);
  // Over a batch queue (its threshold should equal `workers`).
  SharedTreeMcts(MctsConfig cfg, int workers, SearchQueue queue,
                 SearchTree* shared_tree = nullptr,
                 Scheme label = Scheme::kSharedTree);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return label_; }
  int workers() const override { return workers_; }

 private:
  // Runs rollouts until the shared ticket counter passes the budget,
  // counting into `stats`.
  void worker_loop(const Game& env, std::atomic<int>& playout_counter,
                   SearchMetrics& stats);

  int workers_;
  Scheme label_;
};

}  // namespace apm
