#pragma once
// Color-swap-paired match gate — the evidence protocol behind every "does
// this change alter play?" question in the serving stack: race two
// configurations head to head in color-swapped pairs with shared per-pair
// openings, score the candidate as (wins + draws/2) / games, and pass it
// only within a configured band of parity. The same experiment admits a
// quantized lane (candidate = int8 lane, baseline = its fp32 source, same
// engine template) or settles any other A/B over engines or lanes; each
// side is a GateSide, so no per-question adapter is needed.
//
// Protocol (pinned by test_quant_lane):
//  * cfg.games rounds UP to whole pairs; both games of pair p start from
//    the same random opening drawn from Rng(cfg.seed + p * odd-constant),
//    cfg.opening_moves plies deep (a terminal opening skips the pair).
//  * Search seeds are SEAT-bound, not side-bound: the first mover of every
//    game searches with template seed + (4p + 1), the second mover with
//    template seed + (4p + 2) — so when the colors swap inside a pair each
//    seat's tie-breaking stream is reproduced and only the side occupying
//    it changes. The whole gate is a pure function of (sides, proto, cfg).
//  * Game 1 seats the candidate first, game 2 the baseline; a win for
//    whoever the candidate is counts toward candidate_wins either way.
//  * The first mover's engine submits with tag 0, the second's with tag 1:
//    tagged queues are owner-tuned, so gate engines never re-tune them.
//
// Pass rule: candidate_score >= 0.5 − cfg.max_winrate_drop. A play-neutral
// candidate scores ≈ 0.5 by symmetry; a change that actually shifts play
// collapses the score long before a human reads the games.
//
// The gate runs on the caller's thread against live queues (register pool
// lanes with batch_threshold 1 for a synchronous single-producer gate — a
// serial engine submitting leaf-at-a-time to a threshold-B queue would
// otherwise pace on the stale-flush timer).

#include <cstdint>
#include <string>

#include "eval/async_batch.hpp"
#include "games/game.hpp"
#include "mcts/engine.hpp"

namespace apm {

// One contender: an engine template plus the queue its engines submit to
// (e.g. an EvaluatorPool lane's). Side-specific search memory is declared
// through `engine.tt` like any other engine option.
struct GateSide {
  std::string label;
  EngineConfig engine;
  AsyncBatchEvaluator* queue = nullptr;
};

struct MatchGateConfig {
  // Total games; rounded UP to a whole number of color-swapped pairs.
  int games = 8;
  // Random opening plies per pair (shared by both games of the pair).
  int opening_moves = 2;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  // Safety cap per game; 0 plays to terminal (a capped game is a draw).
  int max_moves = 0;
  // Pass band: candidate_score >= 0.5 − max_winrate_drop.
  double max_winrate_drop = 0.15;
};

struct MatchGateReport {
  std::string candidate;  // GateSide labels, echoed for the record
  std::string baseline;
  int games = 0;  // as played (skipped degenerate pairs excluded)
  int candidate_wins = 0;
  int candidate_losses = 0;
  int draws = 0;
  double candidate_score = 0.0;  // (wins + draws/2) / games
  bool pass = false;
};

// Races `candidate` against `baseline` on `proto`'s game, on the calling
// thread. Sides are taken by value: the gate owns its seat-seed rewrites.
MatchGateReport run_match_gate(const Game& proto, GateSide candidate,
                               GateSide baseline,
                               const MatchGateConfig& cfg);

}  // namespace apm
