// Search-memory bench: sweeps concurrent games K and eval-cache capacity
// (including cache-off) on one MatchService pool lane and records the
// dedupe win — evals saved (cache hits + in-flight coalesces), the
// resulting hit rate, unique backend evaluations, and aggregate served
// evals/s — into a JSON baseline (default BENCH_cache.json, or argv[1]).
//
// Setup mirrors fig_service_throughput: K serial-engine Gomoku games share
// one lane queue (threshold pinned at 4, no aggregate controller) over a
// wall-emulated A6000 model, fixed seeds, adaptation off — so per-game
// move sequences are a function of the game id only. That determinism is
// also the correctness check this bench enforces: with exact 64-bit
// coalescing, every game must finish with the same winner and move count
// whether the cache is on or off, while the backend performs strictly
// fewer evaluations.
//
// Transposition-table rows: full games of Othello and Connect4 at a fixed
// per-move simulation budget, TT on vs off (no eval cache in these rows, so
// the reduction is the TT's alone). Grafts must cut both node expansions
// and backend evaluations while — grafts being bitwise-faithful — leaving
// every move of the game identical.
//
// Lane-shared TT rows: the same K-game service run twice — each engine
// owning a PRIVATE table vs all K games grafting from one lane-owned SHARED
// table (eval cache off in both, so the delta is transposition memory's
// alone). Both runs must replay identical games while the shared run
// performs fewer backend evaluations at K >= 4 (cross-game residency: one
// game's expansion is every sibling's graft).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/gpu_model.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "mcts/engine.hpp"
#include "serve/match_service.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace apm;

struct RunResult {
  ServiceStats stats;
  std::vector<int> winners;  // by game id (result-identity check)
  std::vector<int> moves;
};

// Transposition memory of a service run: none, one private table per
// engine, or one table the lane's K games share.
enum class TtMode { kOff, kPrivate, kShared };

// Plays 2·K games on K slots of one fresh pool lane (threshold pinned at 4);
// cache_capacity 0 runs the lane uncached. Identical engine templates and
// seeds in every mode, so every run must produce identical games.
RunResult run_service(const Game& game, int concurrent_games,
                      std::size_t cache_capacity, TtMode tt_mode) {
  SyntheticEvaluator eval(game.action_count(), game.encode_size());
  SimGpuBackend backend(eval, GpuTimingModel{}, /*emulate_wall_time=*/true);

  TtConfig tt;
  tt.enabled = true;
  tt.capacity = 1 << 15;
  tt.max_edges = 64;

  EvaluatorPool pool;
  ModelSpec spec;
  spec.name = "net";
  spec.backend = &backend;
  spec.batch_threshold = 4;
  spec.num_streams = 2;
  spec.stale_flush_us = 1500.0;
  spec.cache = cache_capacity > 0;
  spec.cache_cfg = {.capacity = cache_capacity, .shards = 8, .ways = 4};
  if (tt_mode == TtMode::kShared) spec.tt = tt;
  pool.add_model(spec);

  ServiceWorkload w;
  w.proto = std::shared_ptr<const Game>(game.clone());
  w.model = "net";
  w.slots = concurrent_games;
  w.engine.mcts.num_playouts = 64;
  w.engine.scheme = Scheme::kSerial;
  w.engine.adapt = false;
  if (tt_mode == TtMode::kPrivate) w.engine.tt = tt;

  ServiceConfig sc;
  sc.workers = 8;
  sc.aggregate.enabled = false;

  RunResult r;
  MatchService service(sc, pool, {std::move(w)});
  service.enqueue(2 * concurrent_games);
  service.start();
  service.drain();
  r.stats = service.stats();
  for (const GameRecord& rec : service.take_completed()) {
    r.winners.push_back(rec.stats.winner);
    r.moves.push_back(rec.stats.moves);
  }
  service.stop();
  return r;
}

// One full game driven by a serial SearchEngine (tree reuse on, no eval
// cache) at a fixed per-move playout budget; the TT — when on — is
// refilled by the advance_root() archive pass between moves.
struct TtRunResult {
  int winner = 0;
  int moves = 0;
  std::vector<int> actions;       // move-identity check vs the TT-off run
  std::int64_t expansions = 0;    // fresh (evaluator-backed) expansions
  std::int64_t evals = 0;         // backend eval requests
  std::int64_t grafts = 0;        // leaves served from the TT
  double seconds = 0.0;
};

TtRunResult run_tt_game(const Game& game, int playouts, bool tt_on) {
  SyntheticEvaluator eval(game.action_count(), game.encode_size());
  EngineConfig ec;
  ec.mcts.num_playouts = playouts;
  ec.mcts.seed = 17;
  ec.scheme = Scheme::kSerial;
  ec.adapt = false;
  ec.tt.enabled = tt_on;
  ec.tt.capacity = 1 << 15;
  ec.tt.max_edges = 64;
  SearchEngine engine(ec, {.evaluator = &eval});

  TtRunResult r;
  std::unique_ptr<Game> env = game.clone();
  Timer timer;
  while (!env->is_terminal() && r.moves < 80) {
    const SearchResult res = engine.search(*env);
    r.expansions += static_cast<std::int64_t>(res.metrics.expansions);
    r.evals += static_cast<std::int64_t>(res.metrics.eval_requests);
    r.grafts += static_cast<std::int64_t>(res.metrics.tt_grafts);
    r.actions.push_back(res.best_action);
    engine.advance(res.best_action);
    env->apply(res.best_action);
    ++r.moves;
  }
  r.seconds = timer.elapsed_seconds();
  r.winner = env->winner();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_cache.json";
  bench::JsonWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }

  std::printf(
      "=== eval cache: cross-game dedupe at the shared lane queue ===\n"
      "one pool lane, threshold pinned at 4, wall-emulated A6000 model;\n"
      "serial engines, fixed seeds (deterministic), 2K games on K slots\n\n");

  const Gomoku game(5, 4);
  const std::size_t kDefaultCapacity = 1 << 14;

  // --- K sweep, cache on vs off -------------------------------------------
  Table ksweep({"K games", "cache", "demand", "unique", "saved", "hit rate",
                "mean fill", "evals/s"});
  bool results_identical = true;
  bool strictly_fewer = true;
  double hit_rate_k4 = 0.0;
  for (const int k : {1, 2, 4, 8}) {
    const RunResult off = run_service(game, k, 0, TtMode::kOff);
    const RunResult on = run_service(game, k, kDefaultCapacity, TtMode::kOff);
    results_identical = results_identical && on.winners == off.winners &&
                        on.moves == off.moves;
    strictly_fewer =
        strictly_fewer && on.stats.batch.submitted < off.stats.batch.submitted;
    if (k == 4) hit_rate_k4 = on.stats.cache_hit_rate;

    for (const auto* r : {&off, &on}) {
      const bool cached = r == &on;
      const std::size_t saved =
          r->stats.cache_hits + r->stats.coalesced_evals;
      ksweep.add_row({std::to_string(k), cached ? "on" : "off",
                      std::to_string(r->stats.eval_requests),
                      std::to_string(r->stats.batch.submitted),
                      std::to_string(saved),
                      Table::fmt(r->stats.cache_hit_rate, 3),
                      Table::fmt(r->stats.mean_batch_fill, 2),
                      Table::fmt(r->stats.evals_per_second, 0)});
      const std::string suffix =
          "_k" + std::to_string(k) + (cached ? "_cached" : "_nocache");
      json.entry("cache_evals_saved" + suffix, static_cast<double>(saved),
                 "evals");
      json.entry("cache_unique_evals" + suffix,
                 static_cast<double>(r->stats.batch.submitted), "evals");
      json.entry("cache_hit_rate" + suffix, r->stats.cache_hit_rate,
                 "fraction");
      json.entry("cache_evals_per_s" + suffix, r->stats.evals_per_second,
                 "evals/s");
      json.entry("cache_mean_fill" + suffix, r->stats.mean_batch_fill,
                 "requests/batch");
    }
  }
  ksweep.print("K sweep: cache on vs off (16k-entry cache)");

  // --- capacity sweep at K = 4 --------------------------------------------
  Table csweep({"capacity", "unique", "saved", "hit rate", "evictions",
                "evals/s"});
  for (const std::size_t cap : {std::size_t{256}, std::size_t{1} << 12,
                                std::size_t{1} << 14}) {
    const RunResult r = run_service(game, 4, cap, TtMode::kOff);
    const std::size_t saved = r.stats.cache_hits + r.stats.coalesced_evals;
    csweep.add_row({std::to_string(r.stats.cache.capacity),
                    std::to_string(r.stats.batch.submitted),
                    std::to_string(saved),
                    Table::fmt(r.stats.cache_hit_rate, 3),
                    std::to_string(r.stats.cache.evictions),
                    Table::fmt(r.stats.evals_per_second, 0)});
    const std::string suffix =
        "_k4_cap" + std::to_string(r.stats.cache.capacity);
    json.entry("cache_hit_rate" + suffix, r.stats.cache_hit_rate, "fraction");
    json.entry("cache_evictions" + suffix,
               static_cast<double>(r.stats.cache.evictions), "evictions");
    json.entry("cache_evals_per_s" + suffix, r.stats.evals_per_second,
               "evals/s");
  }
  csweep.print("capacity sweep at K = 4");

  // --- transposition table: TT on vs off, fixed sim budget ----------------
  Table ttable({"game", "TT", "moves", "expansions", "backend evals",
                "grafts", "graft rate", "game secs"});
  bool tt_identical = true;
  bool tt_fewer = true;
  struct TtCase {
    const char* name;
    const Game& game;
    int playouts;
  };
  const Othello othello(6);
  const Connect4 connect4;
  for (const TtCase& tc : std::initializer_list<TtCase>{
           {"othello6", othello, 512}, {"connect4", connect4, 512}}) {
    const TtRunResult off = run_tt_game(tc.game, tc.playouts, false);
    const TtRunResult on = run_tt_game(tc.game, tc.playouts, true);
    // Grafting is bitwise-faithful under the deterministic serial
    // scheme: the whole game must replay move for move.
    tt_identical = tt_identical && on.actions == off.actions &&
                   on.winner == off.winner;
    tt_fewer = tt_fewer && on.expansions < off.expansions &&
               on.evals < off.evals && on.grafts > 0;

    for (const auto* r : {&off, &on}) {
      const bool enabled = r == &on;
      const double graft_rate =
          r->grafts + r->evals > 0
              ? static_cast<double>(r->grafts) /
                    static_cast<double>(r->grafts + r->evals)
              : 0.0;
      ttable.add_row({tc.name, enabled ? "on" : "off",
                      std::to_string(r->moves), std::to_string(r->expansions),
                      std::to_string(r->evals), std::to_string(r->grafts),
                      Table::fmt(graft_rate, 3), Table::fmt(r->seconds, 2)});
      const std::string suffix =
          std::string("_") + tc.name + (enabled ? "_tt" : "_nott");
      json.entry("tt_expansions" + suffix, static_cast<double>(r->expansions),
                 "expansions");
      json.entry("tt_backend_evals" + suffix, static_cast<double>(r->evals),
                 "evals");
      if (enabled) {
        json.entry("tt_grafts" + suffix, static_cast<double>(r->grafts),
                   "grafts");
        json.entry("tt_graft_rate" + suffix, graft_rate, "fraction");
      }
    }
  }
  ttable.print(
      "transposition table: serial engine, fixed 512-playout budget, "
      "no eval cache");

  // --- lane-shared vs private TT across K concurrent games ----------------
  Table stable({"K games", "TT", "demand", "backend evals", "grafts",
                "graft rate", "evals/s"});
  bool shared_identical = true;
  bool shared_fewer = true;  // gated at K >= 4 (cross-game residency win)
  for (const int k : {2, 4, 8}) {
    const RunResult priv = run_service(game, k, 0, TtMode::kPrivate);
    const RunResult shrd = run_service(game, k, 0, TtMode::kShared);
    // Grafts install exactly what a cold expansion would have, so
    // sharing the table across games must not move a single result.
    shared_identical = shared_identical && shrd.winners == priv.winners &&
                       shrd.moves == priv.moves;
    if (k >= 4) {
      shared_fewer = shared_fewer &&
                     shrd.stats.batch.submitted < priv.stats.batch.submitted &&
                     shrd.stats.tt_grafts > priv.stats.tt_grafts;
    }

    for (const auto* r : {&priv, &shrd}) {
      const bool is_shared = r == &shrd;
      stable.add_row({std::to_string(k), is_shared ? "shared" : "private",
                      std::to_string(r->stats.tt_grafts +
                                     r->stats.eval_requests),
                      std::to_string(r->stats.batch.submitted),
                      std::to_string(r->stats.tt_grafts),
                      Table::fmt(r->stats.tt_graft_rate, 3),
                      Table::fmt(r->stats.evals_per_second, 0)});
      const std::string suffix =
          "_k" + std::to_string(k) + (is_shared ? "_shared" : "_private");
      json.entry("shared_tt_backend_evals" + suffix,
                 static_cast<double>(r->stats.batch.submitted), "evals");
      json.entry("shared_tt_grafts" + suffix,
                 static_cast<double>(r->stats.tt_grafts), "grafts");
      json.entry("shared_tt_graft_rate" + suffix, r->stats.tt_graft_rate,
                 "fraction");
      json.entry("shared_tt_evals_per_s" + suffix, r->stats.evals_per_second,
                 "evals/s");
    }
  }
  stable.print(
      "lane-shared vs per-engine private TT: 2K games on K slots, "
      "no eval cache");

  json.entry("shared_tt_results_identical", shared_identical ? 1.0 : 0.0,
             "bool");
  json.entry("tt_results_identical_on_off", tt_identical ? 1.0 : 0.0, "bool");
  json.entry("cache_results_identical_on_off", results_identical ? 1.0 : 0.0,
             "bool");

  std::printf(
      "\ncheck: identical per-game results on/off: %s; strictly fewer unique "
      "evals with cache: %s;\nK=4 hit rate %.3f (must be > 0)\n"
      "check: TT games identical on/off: %s; TT cuts expansions AND backend "
      "evals: %s\n"
      "check: shared-TT games identical to private: %s; shared cuts backend "
      "evals at K>=4: %s\nbaseline written to %s\n",
      results_identical ? "yes" : "NO", strictly_fewer ? "yes" : "NO",
      hit_rate_k4, tt_identical ? "yes" : "NO", tt_fewer ? "yes" : "NO",
      shared_identical ? "yes" : "NO", shared_fewer ? "yes" : "NO", out_path);
  return results_identical && strictly_fewer && hit_rate_k4 > 0.0 &&
                 tt_identical && tt_fewer && shared_identical && shared_fewer
             ? 0
             : 1;
}
