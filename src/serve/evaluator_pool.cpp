#include "serve/evaluator_pool.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace apm {

int EvaluatorPool::add_model(const ModelSpec& spec) {
  APM_CHECK_MSG(!spec.name.empty(), "EvaluatorPool: model name required");
  APM_CHECK_MSG(spec.backend != nullptr,
                "EvaluatorPool: model backend required");
  APM_CHECK_MSG(find(spec.name) < 0,
                "EvaluatorPool: duplicate model name");
  APM_CHECK_MSG(spec.stale_flush_us > 0.0,
                "EvaluatorPool: pooled queues are multi-producer and need "
                "the stale-flush timer (liveness at game tails)");
  auto lane = std::make_unique<Lane>();
  lane->name = spec.name;
  lane->backend = spec.backend;
  lane->precision = spec.precision;
  lane->slo = spec.slo;
  if (spec.tt.enabled) {
    TtConfig tt_cfg = spec.tt;
    tt_cfg.name = spec.name;  // trace instants carry the lane name
    // No position has more legal actions than the net has outputs, so a
    // wider edge slab would stay unused: size it to the lane's game.
    tt_cfg.max_edges =
        std::min(tt_cfg.max_edges, spec.backend->action_count());
    lane->tt = std::make_unique<TranspositionTable>(tt_cfg);
  }
  if (spec.cache) lane->cache = std::make_unique<EvalCache>(spec.cache_cfg);
  lane->queue = std::make_unique<AsyncBatchEvaluator>(
      *spec.backend, spec.batch_threshold, spec.num_streams,
      spec.stale_flush_us, spec.name);
  if (lane->cache) lane->queue->set_cache(lane->cache.get());
  lanes_.push_back(std::move(lane));
  return static_cast<int>(lanes_.size()) - 1;
}

int EvaluatorPool::find(const std::string& name) const {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

void EvaluatorPool::invalidate(int id) {
  if (EvalCache* c = cache(id)) c->clear();
  if (TranspositionTable* t = transposition(id)) t->clear();
}

void EvaluatorPool::invalidate_all() {
  for (int id = 0; id < model_count(); ++id) invalidate(id);
}

void EvaluatorPool::drain_all() {
  for (const std::unique_ptr<Lane>& l : lanes_) l->queue->drain();
}

ModelLaneStats EvaluatorPool::lane_stats(int id) const {
  const Lane& l = lane(id);
  ModelLaneStats s;
  s.model_id = id;
  s.name = l.name;
  s.precision = l.precision;
  s.batch_threshold = l.queue->batch_threshold();
  s.batch = l.queue->stats();
  if (l.cache) s.cache = l.cache->stats();
  if (l.tt) s.tt = l.tt->stats();
  return s;
}

}  // namespace apm
