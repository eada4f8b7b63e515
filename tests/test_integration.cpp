// Integration tests across the whole stack: the Algorithm-1 pipeline
// (self-play → replay → SGD) with a real network and real parallel
// searches, plus the adaptive workflow feeding a scheme choice.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "mcts/factory.hpp"
#include "nn/serialize.hpp"
#include "perfmodel/workflow.hpp"
#include "train/self_play.hpp"
#include "train/trainer.hpp"

namespace apm {
namespace {

MctsConfig small_search(int playouts) {
  MctsConfig cfg;
  cfg.num_playouts = playouts;
  cfg.root_noise = true;
  cfg.seed = 5;
  return cfg;
}

// A trainer's episode source: its net's evaluator behind a CpuBackend on a
// one-lane pool (threshold 1, no cache, threshold pinned), two concurrent
// games of `game` on the engine template `engine`.
struct TrainerService {
  TrainerService(const Game& game, NetEvaluator& eval,
                 const EngineConfig& engine,
                 const SelfPlayConfig& self_play = {})
      : backend(eval) {
    pool.add_model({.name = "net",
                    .backend = &backend,
                    .batch_threshold = 1,
                    .cache = false});
    ServiceConfig sc;
    sc.workers = 2;
    sc.aggregate.enabled = false;
    ServiceWorkload w;
    w.proto = std::shared_ptr<const Game>(game.clone());
    w.model = "net";
    w.slots = 2;
    w.engine = engine;
    w.self_play = self_play;
    service = std::make_unique<MatchService>(sc, pool,
                                             std::vector<ServiceWorkload>{w});
  }

  CpuBackend backend;
  EvaluatorPool pool;
  std::unique_ptr<MatchService> service;
};

TEST(SelfPlay, EpisodeLabelsFollowOutcome) {
  Gomoku g = make_tictactoe();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search =
      make_search(Scheme::kSerial, small_search(50), 1, {.evaluator = &eval});
  ReplayBuffer buffer(256);
  SelfPlayConfig sp;
  sp.temperature_moves = 2;
  const EpisodeStats stats = run_self_play_episode(g, *search, buffer, sp);

  EXPECT_GT(stats.moves, 4);        // a TicTacToe game lasts ≥ 5 moves
  EXPECT_EQ(stats.samples, stats.moves);
  ASSERT_EQ(buffer.size(), static_cast<std::size_t>(stats.samples));
  if (stats.winner == 0) {
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      EXPECT_FLOAT_EQ(buffer.at(i).z, 0.0f);
    }
  } else {
    // Alternating players → z alternates sign move by move.
    for (std::size_t i = 1; i < buffer.size(); ++i) {
      EXPECT_FLOAT_EQ(buffer.at(i).z, -buffer.at(i - 1).z);
    }
  }
}

TEST(SelfPlay, AugmentMultipliesSamplesEightfold) {
  Gomoku g = make_tictactoe();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search =
      make_search(Scheme::kSerial, small_search(30), 1, {.evaluator = &eval});
  ReplayBuffer buffer(1024);
  SelfPlayConfig sp;
  sp.augment = true;
  const EpisodeStats stats = run_self_play_episode(g, *search, buffer, sp);
  EXPECT_EQ(stats.samples, stats.moves * 8);
}

TEST(SelfPlay, MaxMovesTruncatesEpisode) {
  Gomoku g(9, 5);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search =
      make_search(Scheme::kSerial, small_search(20), 1, {.evaluator = &eval});
  ReplayBuffer buffer(256);
  SelfPlayConfig sp;
  sp.max_moves = 4;
  const EpisodeStats stats = run_self_play_episode(g, *search, buffer, sp);
  EXPECT_EQ(stats.moves, 4);
}

// A one-move "search" that plays the first legal action and records the
// float planes of every position it was asked about.
EpisodeRunner::SearchFn first_legal(std::vector<std::vector<float>>* seen) {
  return [seen](const Game& env) {
    if (seen != nullptr) {
      seen->emplace_back(env.encode_size());
      env.encode(seen->back().data());
    }
    std::vector<int> legal;
    env.legal_actions(legal);
    SearchResult r;
    r.best_action = legal.front();
    r.action_prior.assign(static_cast<std::size_t>(env.action_count()), 0.0f);
    r.action_prior[static_cast<std::size_t>(r.best_action)] = 1.0f;
    return r;
  };
}

TEST(SelfPlay, StoresPositionsAsBytesThatWidenToTheEncoding) {
  const Connect4 c4;
  SelfPlayConfig sp;
  sp.temperature_moves = 0;
  sp.max_moves = 5;
  EpisodeRunner runner(c4, sp);
  std::vector<std::vector<float>> planes;
  while (!runner.done()) runner.step(first_legal(&planes));
  EXPECT_EQ(runner.sample_count(), planes.size());

  ReplayBuffer buffer(16);
  runner.finish([&buffer](TrainSample&& s) { buffer.add(std::move(s)); });
  ASSERT_EQ(buffer.size(), planes.size());
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    const TrainSample& s = buffer.at(i);
    ASSERT_EQ(s.state.size(), planes[i].size());
    for (std::size_t k = 0; k < s.state.size(); ++k) {
      ASSERT_EQ(static_cast<float>(s.state[k]), planes[i][k]);
    }
  }

  // A one-sample buffer's minibatch is that position's float planes, bit
  // for bit.
  ReplayBuffer one(1);
  one.add(buffer.at(2));
  Rng rng(1);
  Tensor states, pis, zs;
  one.sample_batch(rng, 2, {0, c4.encode_channels(), c4.height(), c4.width()},
                   states, pis, zs);
  for (int b = 0; b < 2; ++b) {
    EXPECT_EQ(std::memcmp(states.data() + b * planes[2].size(),
                          planes[2].data(), planes[2].size() * sizeof(float)),
              0);
  }
}

// Connect4 whose encoding puts 0.5 in its first cell: not a binary plane.
class HalfCellConnect4 final : public Game {
 public:
  std::unique_ptr<Game> clone() const override {
    return std::make_unique<HalfCellConnect4>(*this);
  }
  int action_count() const override { return g_.action_count(); }
  int height() const override { return g_.height(); }
  int width() const override { return g_.width(); }
  std::string name() const override { return "half-cell-connect4"; }
  int current_player() const override { return g_.current_player(); }
  bool is_terminal() const override { return g_.is_terminal(); }
  int winner() const override { return g_.winner(); }
  int move_count() const override { return g_.move_count(); }
  bool is_legal(int action) const override { return g_.is_legal(action); }
  void legal_actions(std::vector<int>& out) const override {
    g_.legal_actions(out);
  }
  void apply(int action) override { g_.apply(action); }
  std::uint64_t hash() const override { return g_.hash(); }
  void encode(float* planes) const override {
    g_.encode(planes);
    planes[0] = 0.5f;
  }
  std::string to_string() const override { return g_.to_string(); }

 private:
  Connect4 g_;
};

TEST(SelfPlayDeathTest, NonBinaryEncodingFailsTheByteCheck) {
  const HalfCellConnect4 game;
  EpisodeRunner runner(game, SelfPlayConfig{});
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(runner.step(first_legal(nullptr)), "other than 0 or 1");
}

TEST(Trainer, LossDecreasesOverPipelineRun) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  NetEvaluator eval(net);

  TrainerConfig tc;
  tc.sgd_iters_per_move = 4;
  tc.batch_size = 16;
  tc.sgd.lr = 0.01f;
  Trainer trainer(net, tc, 4096);

  // Trainer::run generates episodes through the concurrent match service
  // (two serial-engine games at a time over the net's lane).
  EngineConfig ec;
  ec.mcts = small_search(40);
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  SelfPlayConfig sp;
  sp.temperature_moves = 3;
  sp.augment = true;
  TrainerService ts(game, eval, ec, sp);
  const auto curve = trainer.run(*ts.service, /*episodes=*/8);
  ASSERT_EQ(curve.size(), 8u);
  for (const auto& point : curve) {
    EXPECT_TRUE(std::isfinite(point.loss));
    EXPECT_GT(point.samples_seen, 0);
  }
  // Non-divergence over a short run (a real decrease needs more episodes
  // than a unit test affords; the Figure-7 bench demonstrates that).
  const double early = (curve[0].loss + curve[1].loss) / 2;
  const double late = (curve[6].loss + curve[7].loss) / 2;
  EXPECT_LT(late, early * 1.25);
  EXPECT_GT(trainer.samples_per_second(), 0.0);
}

TEST(Trainer, ParallelSearchFeedsSamePipeline) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  NetEvaluator eval(net);

  TrainerConfig tc;
  tc.sgd_iters_per_move = 2;
  tc.batch_size = 8;
  Trainer trainer(net, tc, 1024);

  EngineConfig ec;
  ec.mcts = small_search(32);
  ec.scheme = Scheme::kLocalTree;
  ec.workers = 4;
  ec.adapt = false;
  TrainerService ts(game, eval, ec);
  const auto curve = trainer.run(*ts.service, 2);
  EXPECT_EQ(curve.size(), 2u);
  EXPECT_GT(trainer.buffer().size(), 0u);
}

TEST(Adaptive, WorkflowDrivesSchemeConstruction) {
  // End-to-end §3.2: profile, decide, construct the chosen scheme through
  // the factory, and run a real search with it.
  WorkflowConfig wf;
  wf.algo.fanout = 25;
  wf.algo.depth = 12;
  wf.algo.num_playouts = 128;
  wf.worker_counts = {4};
  SyntheticEvaluator dnn(25, 4 * 5 * 5, 50.0);
  const WorkflowResult result = run_config_workflow(wf, dnn);
  const AdaptiveDecision& d = result.decision(false, 4);

  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(), 50.0);
  auto search =
      make_search(d.scheme, small_search(128), d.workers, {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_GE(r.best_action, 0);
  EXPECT_EQ(r.metrics.playouts, 128);
}

TEST(Adaptive, DecisionsAgreeWithManualModelQuery) {
  ProfiledCosts costs;
  costs.t_select_us = 3;
  costs.t_expand_us = 1;
  costs.t_backup_us = 1;
  costs.t_dnn_cpu_us = 500;
  costs.mean_depth = 4;
  costs.t_shared_access_us = 0.5;
  costs.tree_bytes = 1 << 20;
  WorkflowConfig wf;
  wf.worker_counts = {8, 64};
  const WorkflowResult result = run_config_workflow_with_costs(wf, costs);
  PerfModel model(wf.hw, costs);
  EXPECT_EQ(result.cpu_decisions[0].scheme, model.decide_cpu(8).scheme);
  EXPECT_EQ(result.gpu_decisions[1].batch_size,
            model.decide_gpu(64).batch_size);
}

TEST(Checkpointing, TrainedNetSurvivesSaveLoadWithSameSearchBehaviour) {
  const Gomoku game = make_tictactoe();
  PolicyValueNet net(NetConfig::tiny(3), 7);
  {
    NetEvaluator eval(net);
    TrainerConfig tc;
    tc.sgd_iters_per_move = 2;
    tc.batch_size = 8;
    Trainer trainer(net, tc, 512);
    EngineConfig ec;
    ec.mcts = small_search(24);
    ec.scheme = Scheme::kSerial;
    ec.adapt = false;
    TrainerService ts(game, eval, ec);
    trainer.run(*ts.service, 2);
  }

  std::stringstream stream;
  save_net(net, stream);
  PolicyValueNet restored(NetConfig::tiny(3), 99);
  load_net(restored, stream);

  NetEvaluator e1(net), e2(restored);
  MctsConfig cfg = small_search(64);
  cfg.root_noise = false;
  auto s1 = make_search(Scheme::kSerial, cfg, 1, {.evaluator = &e1});
  auto s2 = make_search(Scheme::kSerial, cfg, 1, {.evaluator = &e2});
  EXPECT_EQ(s1->search(game).action_prior, s2->search(game).action_prior);
}

}  // namespace
}  // namespace apm
