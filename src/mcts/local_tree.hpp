#pragma once
// Local-tree parallel DNN-MCTS (Algorithm 3, §3.1.2).
//
// One master thread owns the complete tree and performs ALL in-tree
// operations (selection, expansion, backup); the batch queue's stream
// threads execute only node evaluations. Master and streams communicate
// through FIFO queues: evaluation requests flow out, (node, policy, value)
// completions flow back. Because only the master touches the tree, the
// tree stays cache-resident and lock-free — the scheme's advantage — while
// all in-tree work is serialised — its cost (Eq. 5).
//
// The master keeps issuing selections while the worker pool has capacity
// (Algorithm 3 line 12: "if number of tasks in thread pool >= number of
// threads, wait for a task to finish"). If a selection runs into a node
// whose evaluation is still in flight, the master backs out (reverting
// virtual loss) and processes a completion first — it cannot wait, since
// it is itself the consumer of completions.
//
// Evaluation: the master submits every request asynchronously and keeps
// selecting while the queue's stream threads compute.
//  * Over a bare Evaluator the driver wraps it in a private threshold-1
//    queue with N stream threads (SearchQueue): Algorithm 3's N dedicated
//    evaluation threads, one evaluation per batch.
//  * Over an accelerator queue the threshold B is tunable and the queue
//    has N/B streams (§3.3); B is chosen by Algorithm 4 at config time.

#include "mcts/search.hpp"

namespace apm {

class LocalTreeMcts final : public MctsSearch {
 public:
  // Over a bare evaluator, wrapped in a private queue with `workers`
  // stream threads.
  LocalTreeMcts(MctsConfig cfg, int workers, Evaluator& eval,
                SearchTree* shared_tree = nullptr);
  // Over a batch queue.
  LocalTreeMcts(MctsConfig cfg, int workers, SearchQueue queue,
                SearchTree* shared_tree = nullptr);

  SearchResult search(const Game& env) override;
  Scheme scheme() const override { return Scheme::kLocalTree; }
  int workers() const override { return workers_; }

 private:
  int workers_;
};

}  // namespace apm
