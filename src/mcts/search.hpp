#pragma once
// Abstract move-level search interface implemented by every scheme.
//
// One search() call performs the paper's "tree-based search stage" for a
// single move: `num_playouts` rollouts (Node Selection → Expansion →
// Evaluation → Backup) from the given position, returning the normalised
// root visit counts ("action prior", Algorithms 2/3) plus per-phase
// metrics for the profiler and the benches.
//
// Tree ownership: every scheme runs over a SearchTree arena. Standalone
// construction owns a private arena (the historical behaviour — each
// search() resets it); the SearchEngine instead passes one long-lived
// shared arena to whichever driver is currently active, so the tree — and
// the subtree kept by SearchTree::advance_root() — survives across moves
// AND across runtime scheme switches. A driver only reuses the prepared
// tree when the owner arms set_reuse_next(); a plain search() call still
// starts from scratch, so direct users are unaffected.
//
// Evaluation: every tree driver evaluates through one AsyncBatchEvaluator,
// a caller's queue or a private one around a bare Evaluator (SearchQueue
// below), so each driver has a single evaluation path.

#include <memory>

#include "eval/async_batch.hpp"
#include "eval/evaluator.hpp"
#include "games/game.hpp"
#include "mcts/config.hpp"
#include "mcts/transposition.hpp"
#include "mcts/tree.hpp"
#include "support/rng.hpp"

namespace apm {

// The batch queue a tree driver evaluates through. Built from a caller's
// AsyncBatchEvaluator (implicitly, so drivers take either) it borrows that
// queue. Built from a bare Evaluator it owns a private one over a
// CpuBackend: no cache, threshold 1, no stale timer, and `streams` stream
// threads, 0 for drivers that only block in evaluate(). Nothing else holds
// the private queue, so it stays at threshold 1: a blocking evaluate()
// completes and runs its own batch on the calling thread, like a direct
// Evaluator call, and an asynchronous submit() runs on a stream thread.
class SearchQueue {
 public:
  SearchQueue(AsyncBatchEvaluator& queue) : queue_(&queue) {}  // NOLINT
  SearchQueue(Evaluator& eval, int streams);

  AsyncBatchEvaluator& get() const { return *queue_; }
  // True for the private queue over a bare Evaluator.
  bool owned() const { return owned_ != nullptr; }

 private:
  std::unique_ptr<CpuBackend> backend_;
  std::unique_ptr<AsyncBatchEvaluator> owned_;
  AsyncBatchEvaluator* queue_;
};

class MctsSearch {
 public:
  virtual ~MctsSearch() = default;

  // Runs a full move's worth of playouts starting from `env` (which is not
  // modified). Not re-entrant: one search() at a time per instance.
  virtual SearchResult search(const Game& env) = 0;

  virtual Scheme scheme() const = 0;
  virtual int workers() const = 0;

  const MctsConfig& config() const { return cfg_; }
  MctsConfig& mutable_config() { return cfg_; }

  SearchTree& tree() { return tree_; }

  // Arms cross-move tree reuse for the next search() only: the driver skips
  // the arena reset and the root evaluation, continuing from the subtree
  // the caller prepared via SearchTree::advance_root(). Ignored by schemes
  // that cannot reuse a tree (root-parallel grows fresh per-worker trees).
  void set_reuse_next(bool reuse) { reuse_next_ = reuse; }

  // Submitter tag passed with every AsyncBatchEvaluator request, so a
  // shared multi-producer queue (MatchService) can attribute batch
  // occupancy to this search's game slot. Negative = untagged (default).
  void set_batch_tag(int tag) { batch_tag_ = tag; }
  int batch_tag() const { return batch_tag_; }

  // Attaches a caller-owned transposition table (nullptr detaches). The
  // TT-aware drivers (SharedTree, serial included, and LocalTree) probe it
  // before every leaf evaluation and store every fresh expansion; other
  // schemes ignore it. The owner manages clearing; the search bumps the
  // table's generation clock once per arena reset (see begin_move).
  void set_transposition(TranspositionTable* tt) { tt_ = tt; }
  TranspositionTable* transposition() const { return tt_; }

 protected:
  MctsSearch(MctsConfig cfg, SearchTree* shared_tree, SearchQueue queue)
      : cfg_(cfg),
        owned_tree_(shared_tree ? nullptr : std::make_unique<SearchTree>()),
        tree_(shared_tree ? *shared_tree : *owned_tree_),
        queue_(std::move(queue)),
        batch_(queue_.get()),
        rng_(cfg.seed) {}

  // Consumes the reuse flag; true only when the prepared root is actually
  // expanded (otherwise the search must evaluate it from scratch anyway).
  bool take_reuse() {
    const bool armed = reuse_next_;
    reuse_next_ = false;
    return armed && tree_.node(tree_.root()).state.load(
                        std::memory_order_acquire) == ExpandState::kExpanded;
  }

  // Shared search() prologue: resets the arena unless reuse was armed, and
  // records the carried-over subtree in the metrics. Returns whether the
  // root evaluation can be skipped.
  bool begin_move(SearchMetrics& metrics) {
    const bool reuse = take_reuse();
    if (!reuse) {
      tree_.reset();
      // reset() bumps the arena epoch exactly like advance_root()
      // compaction does; tick the TT's replacement clock with it so
      // pre-reset memos age instead of reading as current.
      if (tt_ != nullptr) tt_->bump_generation();
    }
    metrics.reused_nodes = reuse ? tree_.node_count() : 0;
    metrics.reused_visits = reuse ? tree_.root_visit_total() : 0;
    return reuse;
  }

  // Readies the root for this move's rollouts: a reused root only gets
  // fresh Dirichlet noise (self-play); a fresh root is claimed, evaluated
  // and expanded, with noise. The root is a blocking evaluate() wherever
  // that completes its own batch or another producer's traffic will: at
  // threshold 1 (the private queue included) it runs on this thread, and
  // on a tagged (multi-producer) queue, where a flush would dispatch other
  // games' forming batches, it is bounded by the stale timer. Only an
  // untagged queue above threshold 1 (an engine-owned accelerator queue)
  // leaves this driver the root's sole producer with a batch that cannot
  // fill, so there the root is submitted and the batch flushed. Root dedupe
  // is not counted in SearchMetrics: cache_hits must stay a subset of the
  // leaf-only eval_requests. Root hits still show in the queue and cache
  // counters.
  void prepare_root(const Game& env, bool reuse);

  // Shared epilogue of the tree drivers: fills metrics.batch with this
  // move's queue delta when this driver is the sole producer (untagged, the
  // private queue included), or with just its own submission count
  // when tagged on a shared multi-producer queue — there the global
  // counters mix in other games' traffic, and ServiceStats attributes
  // occupancy via the tags instead. `before` is the stats snapshot taken
  // at the top of the move; `reuse` credits the skipped root evaluation.
  // Cache hits and coalesced waiters never took a slot, so they are
  // excluded — batch.submitted stays the unique-position count the fill
  // histogram is built from, and a coalesced request is not double-counted
  // against the queue. The root term is approximate by one: root dedupe is
  // not tracked in SearchMetrics (cache_hits counts leaves only), so a
  // deduped root still contributes its +1 here.
  void finish_batch_metrics(const AsyncBatchEvaluator& batch,
                            const BatchQueueStats& before,
                            SearchMetrics& metrics, bool reuse) const {
    if (batch_tag() < 0) {
      metrics.batch = stats_delta(batch.stats(), before);
    } else {
      const std::size_t requests = metrics.eval_requests + (reuse ? 0 : 1);
      const std::size_t deduped = metrics.cache_hits + metrics.coalesced_evals;
      metrics.batch.submitted = requests > deduped ? requests - deduped : 0;
      metrics.batch.cache_hits = metrics.cache_hits;
      metrics.batch.coalesced = metrics.coalesced_evals;
    }
  }

  MctsConfig cfg_;
  std::unique_ptr<SearchTree> owned_tree_;
  SearchTree& tree_;
  TranspositionTable* tt_ = nullptr;
  SearchQueue queue_;
  AsyncBatchEvaluator& batch_;  // queue_.get()
  Rng rng_;  // root noise

 private:
  bool reuse_next_ = false;
  int batch_tag_ = -1;
};

}  // namespace apm
