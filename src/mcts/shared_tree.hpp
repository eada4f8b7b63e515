#pragma once
// Shared-tree parallel DNN-MCTS (Algorithm 2, §3.1.1), and serial search.
//
// N workers share one tree. Each worker runs complete rollouts: select
// (virtual loss marks the path so workers diverge), evaluate, expand,
// backup. Tree mutation uses per-edge atomics and per-node spinlocks.
// Worker 0 runs on the calling thread and N−1 helper threads join it. The
// helpers are the driver's crew: the first search() with N > 1 starts
// them, they park on a condition variable between moves, and the
// destructor joins them. So a driver that serves many moves starts N−1
// threads once (a SearchEngine rebuilds its driver, and with it the crew,
// only on a scheme switch).
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

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

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
  // Stops and joins the crew.
  ~SharedTreeMcts() override;
  // The crew's threads hold `this`.
  SharedTreeMcts(const SharedTreeMcts&) = delete;
  SharedTreeMcts& operator=(const SharedTreeMcts&) = delete;

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return label_; }
  int workers() const override { return workers_; }

 private:
  // Runs rollouts until the shared ticket counter passes the budget,
  // counting into `stats`.
  void worker_loop(const Game& env, SearchMetrics& stats);
  // Helper `w`'s life: park until search() posts a move, run worker_loop
  // on it, report done; return at shutdown.
  void helper_loop(int w);

  int workers_;
  Scheme label_;

  // This move's shared state: the position, the playout tickets and one
  // metrics slot per worker. search() writes the position and the slots
  // under crew_mu_ before posting a move and reads the slots after every
  // helper reported done, so the mutex orders them.
  const Game* move_env_ = nullptr;
  std::atomic<int> playout_counter_{0};
  std::vector<SearchMetrics> move_stats_;

  // The crew hand-off. search() bumps move_seq_ and sets helpers_busy_ to
  // N−1; each helper runs the move once and decrements it, and the last
  // one wakes search().
  std::mutex crew_mu_;
  std::condition_variable move_posted_;
  std::condition_variable move_done_;
  std::uint64_t move_seq_ = 0;
  int helpers_busy_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> crew_;
};

}  // namespace apm
