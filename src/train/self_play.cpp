#include "train/self_play.hpp"

#include "support/check.hpp"
#include "support/timer.hpp"
#include "train/augment.hpp"

namespace apm {
namespace {

int sample_from(const std::vector<float>& probs, Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  int last_positive = -1;
  for (std::size_t a = 0; a < probs.size(); ++a) {
    if (probs[a] <= 0.0f) continue;
    last_positive = static_cast<int>(a);
    acc += probs[a];
    if (u < acc) return static_cast<int>(a);
  }
  return last_positive;  // numerical tail
}

}  // namespace

EpisodeRunner::EpisodeRunner(const Game& game, const SelfPlayConfig& cfg)
    : cfg_(cfg),
      height_(game.height()),
      width_(game.width()),
      channels_(game.encode_channels()),
      rng_(cfg.seed),
      env_(game.clone()) {}

bool EpisodeRunner::done() const {
  return env_->is_terminal() ||
         (cfg_.max_moves > 0 && stats_.moves >= cfg_.max_moves);
}

void EpisodeRunner::step(const SearchFn& search, const PlayedFn& played) {
  if (done()) return;
  Timer timer;
  const SearchResult result = search(*env_);
  stats_.search_seconds += timer.elapsed_seconds();
  stats_.last_metrics = result.metrics;
  APM_CHECK_MSG(result.best_action >= 0, "search produced no action");

  MoveRecord rec;
  rec.player = env_->current_player();
  planes_.resize(env_->encode_size());
  env_->encode(planes_.data());
  rec.sample.state.resize(planes_.size());
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    APM_CHECK_MSG(planes_[i] == 0.0f || planes_[i] == 1.0f,
                  "Game::encode() wrote a value other than 0 or 1; "
                  "a TrainSample stores one byte per cell");
    rec.sample.state[i] = static_cast<std::uint8_t>(planes_[i]);
  }
  rec.sample.pi = result.action_prior;
  records_.push_back(std::move(rec));

  int action;
  if (stats_.moves < cfg_.temperature_moves) {
    const auto pi = result.prior_with_temperature(cfg_.temperature);
    action = sample_from(pi, rng_);
  } else {
    action = result.best_action;
  }
  APM_CHECK(env_->is_legal(action));
  if (played) played(action);
  env_->apply(action);
  ++stats_.moves;
}

bool EpisodeRunner::augments() const {
  return cfg_.augment && height_ == width_ && !records_.empty() &&
         static_cast<int>(records_.front().sample.pi.size()) ==
             height_ * width_;
}

std::size_t EpisodeRunner::sample_count() const {
  return records_.size() * (augments() ? 8 : 1);
}

EpisodeStats EpisodeRunner::finish(const SampleSink& sink) {
  stats_.winner = env_->winner();
  const bool augment = augments();
  for (MoveRecord& rec : records_) {
    rec.sample.z = stats_.winner == 0
                       ? 0.0f
                       : (stats_.winner == rec.player ? 1.0f : -1.0f);
    if (augment) {
      std::vector<TrainSample> extra;
      augment_symmetries(rec.sample, channels_, height_, extra);
      for (TrainSample& s : extra) sink(std::move(s));
      stats_.samples += 7;
    }
    sink(std::move(rec.sample));
    ++stats_.samples;
  }
  records_.clear();
  return stats_;
}

void fold_engine_trace(EpisodeStats& stats, const SearchEngine& engine,
                       std::size_t log_begin) {
  const auto& log = engine.move_log();
  if (log_begin < log.size()) {
    stats.per_move.reserve(stats.per_move.size() + (log.size() - log_begin));
  }
  for (std::size_t i = log_begin; i < log.size(); ++i) {
    const EngineMoveStats& m = log[i];
    stats.per_move.push_back(m);
    if (m.switched) ++stats.scheme_switches;
    if (m.reused_tree) ++stats.reused_moves;
    stats.reused_visits += m.reused_visits;
    stats.eval_requests += static_cast<std::int64_t>(m.metrics.eval_requests);
    stats.cache_hits += static_cast<std::int64_t>(m.metrics.cache_hits);
    stats.coalesced_evals +=
        static_cast<std::int64_t>(m.metrics.coalesced_evals);
    stats.tt_grafts += static_cast<std::int64_t>(m.metrics.tt_grafts);
  }
}

namespace {

// Core episode loop shared by the MctsSearch and SearchEngine entry points:
// `step` runs one move's search, `played` (optional) observes the chosen
// action before it is applied.
EpisodeStats play_episode(const Game& game, ReplayBuffer& buffer,
                          const SelfPlayConfig& cfg,
                          const EpisodeRunner::SearchFn& step,
                          const EpisodeRunner::PlayedFn& played) {
  EpisodeRunner runner(game, cfg);
  while (!runner.done()) runner.step(step, played);
  return runner.finish([&buffer](TrainSample&& s) { buffer.add(std::move(s)); });
}

}  // namespace

EpisodeStats run_self_play_episode(const Game& game, MctsSearch& search,
                                   ReplayBuffer& buffer,
                                   const SelfPlayConfig& cfg) {
  return play_episode(
      game, buffer, cfg,
      [&search](const Game& env) { return search.search(env); }, nullptr);
}

EpisodeStats run_self_play_episode(const Game& game, SearchEngine& engine,
                                   ReplayBuffer& buffer,
                                   const SelfPlayConfig& cfg) {
  engine.reset_game();
  const std::size_t log_begin = engine.move_log().size();
  EpisodeStats stats = play_episode(
      game, buffer, cfg,
      [&engine](const Game& env) { return engine.search(env); },
      [&engine](int action) { engine.advance(action); });
  // Surface the engine's adaptation trace for this episode.
  fold_engine_trace(stats, engine, log_begin);
  return stats;
}

}  // namespace apm
