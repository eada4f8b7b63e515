// Serving-plane tests for quantized inference lanes: mixed-precision lane
// registration and telemetry in the EvaluatorPool, the match-play gate
// admitting an int8 lane against its fp32 source, the MatchService's
// live per-game in-flight accounting, and mixed-precision workloads
// draining through one service.
//
// This binary runs under ThreadSanitizer in CI (alongside test_hetero and
// test_service): the int8 kernels' thread-local pack buffers and the
// lanes' queue/cache synchronization are exactly what TSan should sweep.

#include <gtest/gtest.h>

#include <memory>

#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "nn/quantize.hpp"
#include "serve/match_gate.hpp"
#include "serve/match_service.hpp"

namespace apm {
namespace {

// A real fp32 net plus its int8 snapshot, each served by a NetEvaluator
// behind a CpuBackend — the two lanes the mixed-precision tests race.
struct QuantRig {
  explicit QuantRig(int board, std::uint64_t seed)
      : net(NetConfig::tiny(board), seed),
        qnet(net),
        fp32_eval(net),
        int8_eval(qnet),
        fp32_backend(fp32_eval),
        int8_backend(int8_eval) {}

  PolicyValueNet net;
  QuantizedPolicyValueNet qnet;
  NetEvaluator fp32_eval;
  NetEvaluator int8_eval;
  CpuBackend fp32_backend;
  CpuBackend int8_backend;
};

EngineConfig serial_engine(int playouts) {
  EngineConfig ec;
  ec.mcts.num_playouts = playouts;
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  return ec;
}

TEST(EvaluatorPoolPrecision, LanesDeclareAndReportPrecision) {
  QuantRig rig(3, 77);
  EvaluatorPool pool;
  const int id_f = pool.add_model(
      {.name = "net", .backend = &rig.fp32_backend, .batch_threshold = 1});
  const int id_q = pool.add_model({.name = "net-int8",
                                   .backend = &rig.int8_backend,
                                   .batch_threshold = 1,
                                   .precision = Precision::kInt8});

  // Default is fp32; the declared precision is immutable lane telemetry.
  EXPECT_EQ(pool.precision(id_f), Precision::kFp32);
  EXPECT_EQ(pool.precision(id_q), Precision::kInt8);
  EXPECT_EQ(pool.lane_stats(id_f).precision, Precision::kFp32);
  EXPECT_EQ(pool.lane_stats(id_q).precision, Precision::kInt8);
  EXPECT_STREQ(precision_name(pool.precision(id_q)), "int8");

  // Two precisions of one logical net are two fully isolated lanes.
  EXPECT_NE(pool.find("net"), pool.find("net-int8"));
}

TEST(MatchGate, Int8LaneMatchesFp32AtTicTacToe) {
  const Gomoku game = make_tictactoe();
  QuantRig rig(3, 123);
  EvaluatorPool pool;
  // Threshold-1 lanes: the gate is a synchronous single producer per lane
  // (see the match_gate header note).
  const int id_f = pool.add_model(
      {.name = "fp32", .backend = &rig.fp32_backend, .batch_threshold = 1});
  const int id_q = pool.add_model({.name = "int8",
                                   .backend = &rig.int8_backend,
                                   .batch_threshold = 1,
                                   .precision = Precision::kInt8});

  // Identical search settings on both sides; only the evaluation lane
  // differs.
  const GateSide candidate{.label = "int8",
                           .engine = serial_engine(96),
                           .queue = &pool.queue(id_q)};
  const GateSide baseline{.label = "fp32",
                          .engine = serial_engine(96),
                          .queue = &pool.queue(id_f)};
  MatchGateConfig cfg;
  cfg.games = 4;
  cfg.opening_moves = 2;
  cfg.seed = 2024;
  // 96-playout MCTS plays tic-tac-toe (near-)perfectly from any 2-ply
  // opening; color-swapped pairs cancel decided openings, so an int8 net
  // that matches its fp32 source scores ~0.5.
  cfg.max_winrate_drop = 0.3;

  const MatchGateReport rep = run_match_gate(game, candidate, baseline, cfg);
  EXPECT_EQ(rep.candidate, "int8");
  EXPECT_EQ(rep.baseline, "fp32");
  // The exact record of this configuration: pins the gate protocol (seat
  // seeds, shared openings, colour swap) bit for bit.
  EXPECT_EQ(rep.games, 4);
  EXPECT_EQ(rep.candidate_wins, 1);
  EXPECT_EQ(rep.candidate_losses, 1);
  EXPECT_EQ(rep.draws, 2);
  EXPECT_DOUBLE_EQ(rep.candidate_score, 0.5);
  EXPECT_TRUE(rep.pass) << "int8 score " << rep.candidate_score << " over "
                        << rep.games << " games";

  // The gate is a pure function of (nets, proto, cfg): a rerun reproduces
  // the exact report — evidence, not a coin flip.
  const MatchGateReport again = run_match_gate(game, candidate, baseline, cfg);
  EXPECT_EQ(again.candidate_wins, rep.candidate_wins);
  EXPECT_EQ(again.candidate_losses, rep.candidate_losses);
  EXPECT_EQ(again.draws, rep.draws);
  EXPECT_EQ(again.candidate_score, rep.candidate_score);
}

TEST(MatchServicePrecision, MixedPrecisionWorkloadsDrainAndBalance) {
  const Gomoku game = make_tictactoe();
  QuantRig rig(3, 31);
  EvaluatorPool pool;
  pool.add_model({.name = "fp32",
                  .backend = &rig.fp32_backend,
                  .batch_threshold = 2,
                  .stale_flush_us = 500.0});
  pool.add_model({.name = "int8",
                  .backend = &rig.int8_backend,
                  .batch_threshold = 2,
                  .stale_flush_us = 500.0,
                  .precision = Precision::kInt8});

  ServiceConfig sc;
  sc.workers = 2;
  ServiceWorkload wf;
  wf.proto = std::shared_ptr<const Game>(game.clone());
  wf.model = "fp32";
  wf.slots = 2;
  wf.engine = serial_engine(24);
  ServiceWorkload wq = wf;
  wq.model = "int8";

  MatchService service(sc, pool, {wf, wq});
  service.start();
  ASSERT_TRUE(service.enqueue(6));
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.games_completed, 6);
  ASSERT_EQ(stats.lanes.size(), 2u);
  for (const ServiceLaneStats& lane : stats.lanes) {
    EXPECT_EQ(lane.precision, pool.precision(lane.model_id));
    // Live in-flight accounting must balance: every seated game added its
    // (template or committed) in-flight and every retire removed exactly
    // the slot's last value — any residue here is a leak in the live
    // feedback path.
    EXPECT_EQ(lane.live_games, 0);
    EXPECT_DOUBLE_EQ(lane.live_inflight, 0.0);
  }
  // Both lanes actually served work at their declared precisions.
  EXPECT_GT(stats.lanes[0].batch.submitted, 0u);
  EXPECT_GT(stats.lanes[1].batch.submitted, 0u);
  service.stop();
}

TEST(MatchServicePrecision, LiveInflightTracksCommittedSchemes) {
  // Adaptation ON with a cost feed is not reachable through the service
  // (engines are internal), so pin the contract at the accounting level:
  // a serial template keeps scheme_inflight == 1 per live game, and the
  // sum collapses to zero once the wave retires.
  const Gomoku game = make_tictactoe();
  QuantRig rig(3, 59);
  EvaluatorPool pool;
  pool.add_model({.name = "int8",
                  .backend = &rig.int8_backend,
                  .batch_threshold = 1,
                  .stale_flush_us = 500.0,
                  .precision = Precision::kInt8});

  ServiceConfig sc;
  sc.workers = 1;
  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "int8";
  w.slots = 1;
  w.engine = serial_engine(16);

  MatchService service(sc, pool, {w});
  service.start();
  ASSERT_TRUE(service.enqueue(2));
  service.drain();
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.lanes.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.lanes[0].live_inflight, 0.0);
  EXPECT_EQ(stats.games_completed, 2);
  service.stop();
}

}  // namespace
}  // namespace apm
