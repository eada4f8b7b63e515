#pragma once
// Scheme-dispatching constructor — the `flag_local` switch of Algorithm 1,
// generalised to every implemented scheme.

#include <memory>

#include "mcts/baselines.hpp"
#include "mcts/local_tree.hpp"
#include "mcts/search.hpp"
#include "mcts/shared_tree.hpp"

namespace apm {

// Evaluation resources for a search. The serial, shared-tree and
// local-tree schemes take `batch` (an accelerator queue or a service lane)
// or `evaluator` (preferring `batch` when both are set); the baselines
// require `evaluator`. Either way every tree driver evaluates through a
// batch queue: a bare `evaluator` is wrapped once in a private, cache-less,
// threshold-1 queue (SearchQueue, mcts/search.hpp) whose blocking requests
// run on the calling thread and whose asynchronous ones (LocalTree,
// LeafParallel) run on the driver's `workers` stream threads. `batch_tag`
// (>= 0) tags every request this search submits to `batch`, so a shared
// multi-producer queue can attribute batch occupancy per game slot
// (MatchService); a tagged queue is shared, so its owner tunes its
// threshold.
struct SearchResources {
  Evaluator* evaluator = nullptr;
  AsyncBatchEvaluator* batch = nullptr;
  int batch_tag = -1;
  // Optional caller-owned transposition table, attached to the built
  // search via MctsSearch::set_transposition(). May be shared with other
  // engines (an EvaluatorPool lane table): attached searches only ever
  // bump its generation clock, so sharing never rewinds anyone's entries.
  TranspositionTable* tt = nullptr;
};

// `shared_tree` != nullptr runs the scheme over an externally owned arena
// (the SearchEngine's long-lived tree, surviving moves and scheme
// switches); nullptr keeps the historical per-search-object private tree.
std::unique_ptr<MctsSearch> make_search(Scheme scheme, MctsConfig cfg,
                                        int workers, SearchResources res,
                                        SearchTree* shared_tree = nullptr);

}  // namespace apm
