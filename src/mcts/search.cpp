#include "mcts/search.hpp"

#include <vector>

#include "mcts/selection.hpp"
#include "support/check.hpp"

namespace apm {

SearchQueue::SearchQueue(Evaluator& eval, int streams)
    : backend_(std::make_unique<CpuBackend>(eval)),
      owned_(std::make_unique<AsyncBatchEvaluator>(
          *backend_, /*batch_threshold=*/1, streams,
          /*stale_flush_us=*/0.0, "search")),
      queue_(owned_.get()) {}

void MctsSearch::prepare_root(const Game& env, bool reuse) {
  InTreeOps ops(tree_, cfg_);
  if (reuse) {
    if (cfg_.root_noise) ops.mix_root_noise(rng_);
    return;
  }
  Node& root = tree_.node(tree_.root());
  ExpandState expected = ExpandState::kLeaf;
  const bool claimed = root.state.compare_exchange_strong(
      expected, ExpandState::kExpanding, std::memory_order_acq_rel);
  APM_CHECK(claimed);

  std::vector<float> input(env.encode_size());
  env.encode(input.data());
  const std::uint64_t key = env.eval_key();
  EvalOutput out;
  if (batch_tag() >= 0 || batch_.batch_threshold() == 1) {
    out = batch_.evaluate(input.data(), batch_tag(), key);
  } else {
    SubmitOutcome how = SubmitOutcome::kQueued;
    auto fut = batch_.submit_future(input.data(), batch_tag(), key, &how);
    if (how == SubmitOutcome::kQueued) batch_.flush();
    out = fut.get();
  }
  ops.note_eval(tree_.root(), key, out.value);
  ops.expand(tree_.root(), env, out.policy, cfg_.root_noise ? &rng_ : nullptr);
}

}  // namespace apm
