#include "serve/match_gate.hpp"

#include <memory>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace apm {
namespace {

// Plays one gate game on a copy of `opening`. `first` moves as player +1.
// Returns the game winner (+1 / −1 / 0) from the environment's convention.
// Engine construction order (first, then second) is part of the pinned
// protocol: over a shared resource it fixes which engine registers first.
int play_game(const Game& opening, const GateSide& first,
              std::uint64_t first_seed, const GateSide& second,
              std::uint64_t second_seed, int max_moves) {
  std::unique_ptr<Game> env = opening.clone();

  EngineConfig ec_first = first.engine;
  ec_first.mcts.seed = first_seed;
  EngineConfig ec_second = second.engine;
  ec_second.mcts.seed = second_seed;

  SearchEngine eng_first(ec_first, {.batch = first.queue});
  SearchEngine eng_second(ec_second, {.batch = second.queue});

  int moves = 0;
  while (!env->is_terminal() && (max_moves <= 0 || moves < max_moves)) {
    SearchEngine& mover = env->current_player() == 1 ? eng_first : eng_second;
    const SearchResult r = mover.search(*env);
    APM_CHECK(r.best_action >= 0);
    env->apply(r.best_action);
    // Both engines track every played move so their reused subtrees stay
    // rooted at the live position.
    eng_first.advance(r.best_action);
    eng_second.advance(r.best_action);
    ++moves;
  }
  return env->is_terminal() ? env->winner() : 0;  // move-capped = draw
}

}  // namespace

MatchGateReport run_match_gate(const Game& proto, GateSide candidate,
                               GateSide baseline,
                               const MatchGateConfig& cfg) {
  APM_CHECK(cfg.games >= 1);
  APM_CHECK(cfg.opening_moves >= 0);
  APM_CHECK_MSG(candidate.queue != nullptr, "match gate: candidate queue");
  APM_CHECK_MSG(baseline.queue != nullptr, "match gate: baseline queue");

  const int pairs = (cfg.games + 1) / 2;

  // Pool/shared queues are owner-tuned; gate engines must not fight over
  // them.
  candidate.engine.manage_batch_threshold = false;
  baseline.engine.manage_batch_threshold = false;

  MatchGateReport rep;
  rep.candidate = candidate.label;
  rep.baseline = baseline.label;
  rep.games = pairs * 2;

  std::vector<int> legal;
  for (int p = 0; p < pairs; ++p) {
    // Shared opening: both games of the pair start from the same position,
    // derived from (seed, pair) alone — reproducible and scheduler-free.
    std::unique_ptr<Game> opening = proto.clone();
    Rng rng(cfg.seed + static_cast<std::uint64_t>(p) * 0x2545f4914f6cdd1dULL);
    for (int m = 0; m < cfg.opening_moves && !opening->is_terminal(); ++m) {
      opening->legal_actions(legal);
      opening->apply(legal[rng.below(legal.size())]);
    }
    if (opening->is_terminal()) continue;  // degenerate opening: replay lost

    // Seat-bound seeds (see header): the first mover of either game runs
    // template seed + 4p+1, the second + 4p+2 — swapping colors inside the
    // pair reuses each seat's tie-breaking stream.
    const std::uint64_t seat_first = static_cast<std::uint64_t>(4 * p + 1);
    const std::uint64_t seat_second = static_cast<std::uint64_t>(4 * p + 2);

    // Game 1: candidate moves first.
    int w = play_game(*opening, candidate,
                      candidate.engine.mcts.seed + seat_first, baseline,
                      baseline.engine.mcts.seed + seat_second, cfg.max_moves);
    if (w == 1) {
      ++rep.candidate_wins;
    } else if (w == -1) {
      ++rep.candidate_losses;
    } else {
      ++rep.draws;
    }

    // Game 2: colors swapped — baseline moves first.
    w = play_game(*opening, baseline,
                  baseline.engine.mcts.seed + seat_first, candidate,
                  candidate.engine.mcts.seed + seat_second, cfg.max_moves);
    if (w == -1) {
      ++rep.candidate_wins;
    } else if (w == 1) {
      ++rep.candidate_losses;
    } else {
      ++rep.draws;
    }
  }

  const int played = rep.candidate_wins + rep.candidate_losses + rep.draws;
  rep.games = played;
  if (played > 0) {
    rep.candidate_score =
        (rep.candidate_wins + 0.5 * rep.draws) / static_cast<double>(played);
  }
  rep.pass = played > 0 && rep.candidate_score >= 0.5 - cfg.max_winrate_drop;
  return rep;
}

}  // namespace apm
