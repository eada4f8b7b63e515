// Heterogeneous serving bench (ISSUE 5): model count × per-model slot count
// sweep over the EvaluatorPool-routed MatchService — per-queue batch fill,
// the aggregate controller's threshold trajectory, and aggregate served
// evals/s as lanes multiply.
//
// Setup: M ∈ {1, 2, 3} models (gomoku 5x5, connect4, othello 6x6 — three
// different action spaces, so three genuinely distinct nets) × K ∈ {2, 4}
// slots per model; each lane is a SimGpuBackend behind a per-net
// EvalCache. Accelerator timing comes from the A6000 model WITHOUT wall
// emulation (DES-style, like fig3/fig6): the controller's Algorithm-4
// probes use the modelled batch costs while requests flow at host speed —
// on a small dev box, wall-emulating M × K busy-wait lanes would
// serialize on the CPU and starve the very arrival rates under study
// (fig_service_throughput keeps the wall-emulated single-lane baseline).
// Every lane is DELIBERATELY constructed at threshold 1 — the
// starved-single-game operating point — so the run demonstrates the
// control loop: as K games attach to a lane the measured aggregate
// arrival rate makes a larger batch win the Algorithm-4 probe and the
// service re-tunes the queue up (batch fill follows); as the wave drains
// or dedupe rises the unique pool thins and over-sized thresholds fall
// back. The acceptance evidence is recorded per lane: mean fill (> 1 at
// K ≥ 2 proves cross-game batching inside the lane), the final threshold,
// the retune count, and the full trajectory entries.
//
// Writes a JSON baseline (default BENCH_hetero.json, or argv[1]).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/gpu_model.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "serve/match_service.hpp"
#include "support/table.hpp"

namespace {

using namespace apm;

struct LaneRig {
  LaneRig(const Game& g, std::string model_name)
      : name(std::move(model_name)),
        eval(g.action_count(), g.encode_size()),
        backend(eval, GpuTimingModel{}, /*emulate_wall_time=*/false) {}

  std::string name;
  SyntheticEvaluator eval;
  SimGpuBackend backend;
};

struct RunResult {
  ServiceStats stats;
  std::vector<ThresholdDecision> log;
};

RunResult run_hetero(const std::vector<const Game*>& games, int slots_per_model,
                     int games_per_slot) {
  std::vector<std::unique_ptr<LaneRig>> rigs;
  EvaluatorPool pool;
  for (std::size_t m = 0; m < games.size(); ++m) {
    rigs.push_back(std::make_unique<LaneRig>(
        *games[m], "net-" + games[m]->name()));
    // Threshold 1 = the mis-tuned starved operating point the controller
    // must climb out of once the lane's live-game count rises.
    pool.add_model({.name = rigs.back()->name,
                    .backend = &rigs.back()->backend,
                    .batch_threshold = 1,
                    .num_streams = 2,
                    .stale_flush_us = 1500.0,
                    .cache_cfg = {.capacity = 1 << 14, .shards = 8,
                                  .ways = 4}});
  }

  ServiceConfig sc;
  sc.workers = 8;  // fixed thread pool; slots bound the real concurrency
  sc.aggregate.retune_every_moves = 4;
  std::vector<ServiceWorkload> workloads;
  for (std::size_t m = 0; m < games.size(); ++m) {
    ServiceWorkload w;
    w.proto = std::shared_ptr<const Game>(games[m]->clone());
    w.model = rigs[m]->name;
    w.slots = slots_per_model;
    w.engine.mcts.num_playouts = 48;
    w.engine.scheme = Scheme::kSerial;
    w.engine.adapt = false;
    workloads.push_back(std::move(w));
  }

  MatchService service(sc, pool, std::move(workloads));
  for (int m = 0; m < static_cast<int>(games.size()); ++m) {
    service.enqueue_workload(m, games_per_slot * slots_per_model);
  }
  service.start();
  service.drain();
  RunResult r;
  r.stats = service.stats();
  r.log = service.retune_log();
  service.stop();
  return r;
}

std::string short_name(const std::string& model) {
  // "net-gomoku5x5w4" -> "gomoku5x5w4"
  return model.substr(model.find('-') + 1);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_hetero.json";
  bench::JsonWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }

  std::printf(
      "=== heterogeneous serving: per-model lanes + aggregate threshold "
      "control ===\nM models x K slots each, serial engines, 8 service "
      "threads fixed; every lane\nstarts mis-tuned at threshold 1 "
      "(A6000 timing model per lane, no wall emulation; 16k-entry per-net caches)\n\n");

  const Gomoku gomoku(5, 4);
  const Connect4 connect4;
  const Othello othello(6);
  const std::vector<const Game*> all = {&gomoku, &connect4, &othello};

  Table table({"M models", "K slots", "model", "fill", "hit rate",
               "B final", "retunes", "evals/s (agg)"});

  int total_retunes = 0;
  bool cross_game_fill = false;
  for (const int m_count : {1, 2, 3}) {
    for (const int k : {2, 4}) {
      const std::vector<const Game*> games(all.begin(),
                                           all.begin() + m_count);
      const RunResult r = run_hetero(games, k, /*games_per_slot=*/2);
      const std::string tag =
          "_m" + std::to_string(m_count) + "_k" + std::to_string(k);
      json.entry("hetero_evals_per_s" + tag, r.stats.evals_per_second,
                 "evals/s");
      json.entry("hetero_retunes" + tag,
                 static_cast<double>(r.stats.threshold_retunes), "count");
      total_retunes += r.stats.threshold_retunes;
      for (const ServiceLaneStats& lane : r.stats.lanes) {
        const std::string game = short_name(lane.model);
        const double demand = static_cast<double>(
            lane.batch.submitted + lane.batch.cache_hits +
            lane.batch.coalesced);
        const double hit_rate =
            demand > 0.0 ? (lane.batch.cache_hits + lane.batch.coalesced) /
                               demand
                         : 0.0;
        table.add_row({std::to_string(m_count), std::to_string(k), game,
                       Table::fmt(lane.batch.mean_batch, 2),
                       Table::fmt(hit_rate, 3),
                       std::to_string(lane.threshold),
                       std::to_string(lane.retunes),
                       Table::fmt(r.stats.evals_per_second, 0)});
        json.entry("hetero_fill_" + game + tag, lane.batch.mean_batch,
                   "requests/batch");
        json.entry("hetero_threshold_final_" + game + tag, lane.threshold,
                   "threshold");
        json.entry("hetero_lane_retunes_" + game + tag, lane.retunes,
                   "count");
        if (k >= 2 && lane.batch.mean_batch > 1.05) cross_game_fill = true;
      }
      // The threshold trajectory: every APPLIED retune, in decision order —
      // the "controller re-tunes as live games / hit rate change" evidence.
      int step = 0;
      for (const ThresholdDecision& d : r.log) {
        if (!d.changed) continue;
        std::string game = "model" + std::to_string(d.model_id);
        for (const ServiceLaneStats& lane : r.stats.lanes) {
          if (lane.model_id == d.model_id) game = short_name(lane.model);
        }
        std::printf(
            "  traj m%d k%d %-12s t=%6.3fs B %2d -> %2d (live %d, pool "
            "%.2f, hit %.3f)\n",
            m_count, k, game.c_str(), d.at_seconds, d.from, d.to,
            d.live_games, d.pool, d.hit_rate);
        json.entry("hetero_traj_" + game + tag + "_" + std::to_string(step),
                   d.to, "threshold");
        ++step;
      }
    }
  }
  table.print("per-lane fill / dedupe / thresholds vs model count x slots");

  json.entry("hetero_total_retunes", total_retunes, "count");

  std::printf(
      "\ncheck: lanes with K >= 2 slots form cross-game batches (fill > 1) "
      "inside each\nmodel; the aggregate controller re-tunes mis-tuned "
      "lanes up as games attach and\nback down as waves drain "
      "(total retunes: %d).\nbaseline written to %s\n",
      total_retunes, out_path);
  return total_retunes >= 1 && cross_game_fill ? 0 : 1;
}
