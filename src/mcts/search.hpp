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

#include <memory>

#include "games/game.hpp"
#include "mcts/config.hpp"
#include "mcts/transposition.hpp"
#include "mcts/tree.hpp"

namespace apm {

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
  // TT-aware drivers (Serial/SharedTree/LocalTree) probe it before every
  // leaf evaluation and store every fresh expansion; other schemes ignore
  // it. The owner manages clearing; the search bumps the table's
  // generation clock once per arena reset (see begin_move).
  void set_transposition(TranspositionTable* tt) { tt_ = tt; }
  TranspositionTable* transposition() const { return tt_; }

 protected:
  explicit MctsSearch(MctsConfig cfg, SearchTree* shared_tree = nullptr)
      : cfg_(cfg),
        owned_tree_(shared_tree ? nullptr : std::make_unique<SearchTree>()),
        tree_(shared_tree ? *shared_tree : *owned_tree_) {}

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

  // Shared epilogue for drivers running over an AsyncBatchEvaluator: fills
  // metrics.batch with this move's global-queue delta when this driver is
  // the sole producer (untagged), or with just its own submission count
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

 private:
  bool reuse_next_ = false;
  int batch_tag_ = -1;
};

}  // namespace apm
