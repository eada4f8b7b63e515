#include "mcts/factory.hpp"

#include "support/check.hpp"

namespace apm {

namespace {

std::unique_ptr<MctsSearch> build(Scheme scheme, MctsConfig cfg, int workers,
                                  const SearchResources& res,
                                  SearchTree* shared_tree) {
  switch (scheme) {
    case Scheme::kSerial:
      if (res.batch != nullptr) {
        return std::make_unique<SerialMcts>(cfg, *res.batch, shared_tree);
      }
      return std::make_unique<SerialMcts>(cfg, *res.evaluator, shared_tree);
    case Scheme::kSharedTree:
      if (res.batch != nullptr) {
        return std::make_unique<SharedTreeMcts>(cfg, workers, *res.batch,
                                                shared_tree);
      }
      return std::make_unique<SharedTreeMcts>(cfg, workers, *res.evaluator,
                                              shared_tree);
    case Scheme::kLocalTree:
      if (res.batch != nullptr) {
        return std::make_unique<LocalTreeMcts>(cfg, workers, *res.batch,
                                               shared_tree);
      }
      return std::make_unique<LocalTreeMcts>(cfg, workers, *res.evaluator,
                                             shared_tree);
    case Scheme::kLeafParallel:
      APM_CHECK_MSG(res.evaluator != nullptr,
                    "leaf-parallel search needs a synchronous evaluator");
      return std::make_unique<LeafParallelMcts>(cfg, workers, *res.evaluator,
                                                shared_tree);
    case Scheme::kRootParallel:
      APM_CHECK_MSG(res.evaluator != nullptr,
                    "root-parallel search needs a synchronous evaluator");
      return std::make_unique<RootParallelMcts>(cfg, workers,
                                                *res.evaluator);
  }
  APM_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

}  // namespace

std::unique_ptr<MctsSearch> make_search(Scheme scheme, MctsConfig cfg,
                                        int workers, SearchResources res,
                                        SearchTree* shared_tree) {
  APM_CHECK_MSG(res.evaluator != nullptr || res.batch != nullptr,
                "make_search: no evaluation resource provided");
  std::unique_ptr<MctsSearch> search =
      build(scheme, cfg, workers, res, shared_tree);
  search->set_batch_tag(res.batch_tag);
  search->set_transposition(res.tt);
  return search;
}

}  // namespace apm
