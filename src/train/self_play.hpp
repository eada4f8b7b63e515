#pragma once
// Self-play episode runner — the data-collection half of Algorithm 1
// (lines 3–12): play a game move by move, each move chosen by a full
// tree-based search; record (state, π) per move and back-fill the final
// reward z once the episode terminates.
//
// Three entry points: the historical one drives a bare MctsSearch (fresh
// tree per move, fixed scheme); the SearchEngine overload drives the
// adaptive engine instead — the played move is fed back via
// engine.advance() so the subtree survives to the next move, and the
// engine's per-move adaptation trace (scheme/worker/batch switches, reuse
// accounting) is surfaced in EpisodeStats. EpisodeRunner is the resumable
// core both are built on: it advances one move per step() call, so a
// MatchService worker can interleave moves of many concurrent games on one
// thread pool (serve/match_service.hpp).

#include <functional>
#include <memory>
#include <vector>

#include "games/game.hpp"
#include "mcts/engine.hpp"
#include "mcts/search.hpp"
#include "train/replay_buffer.hpp"

namespace apm {

struct SelfPlayConfig {
  // Moves with index < temperature_moves sample from π (exploration);
  // later moves play argmax (the paper's "take action argmax(ap)").
  int temperature_moves = 8;
  float temperature = 1.0f;
  bool augment = false;  // add 8-fold symmetries of each sample
  std::uint64_t seed = 11;
  int max_moves = 0;  // 0 = play to terminal
};

struct EpisodeStats {
  int moves = 0;
  int winner = 0;  // +1 / −1 / 0 draw
  int samples = 0;
  double search_seconds = 0.0;  // Σ move search wall time
  SearchMetrics last_metrics;   // metrics of the final move
  // Engine-mode extras (empty/zero for the bare-MctsSearch overload):
  int scheme_switches = 0;      // runtime configuration changes this episode
  int reused_moves = 0;         // moves that started from a reused subtree
  std::int64_t reused_visits = 0;  // Σ visit mass carried across moves
  // Eval-cache dedupe, Σ over this game's moves (the per-game hit rate is
  // (cache_hits + coalesced_evals) / eval_requests; zero without a cache).
  std::int64_t eval_requests = 0;
  std::int64_t cache_hits = 0;
  std::int64_t coalesced_evals = 0;
  // Leaves grafted from the transposition table (no eval request at all),
  // Σ over this game's moves; zero without a TT.
  std::int64_t tt_grafts = 0;
  std::vector<EngineMoveStats> per_move;  // full adaptation trace
};

// One self-play episode as a resumable per-move state machine. step() runs
// exactly one move (search → temperature sampling → apply); finish() does
// the terminal bookkeeping (z back-fill, 8-fold augmentation) and hands
// every TrainSample to a sink. Stepping is single-owner: one caller at a
// time, but ownership may hop between threads move to move (the
// MatchService slot scheduler does exactly that).
class EpisodeRunner {
 public:
  using SearchFn = std::function<SearchResult(const Game&)>;
  using PlayedFn = std::function<void(int)>;
  using SampleSink = std::function<void(TrainSample&&)>;

  EpisodeRunner(const Game& game, const SelfPlayConfig& cfg);

  bool done() const;
  const Game& env() const { return *env_; }
  int moves() const { return stats_.moves; }

  // Runs one move: `search` produces the move's SearchResult; `played`
  // (optional) observes the chosen action before it is applied — the
  // engine-mode hook for SearchEngine::advance(). No-op once done().
  void step(const SearchFn& search, const PlayedFn& played = nullptr);

  // Terminal bookkeeping: fills z from the outcome, applies augmentation,
  // hands every sample to `sink`, and returns the episode stats. Call once,
  // after done() (or earlier to finalize a truncated episode).
  EpisodeStats finish(const SampleSink& sink);

  // The number of samples finish() would hand to its sink now: one per
  // move, eight with augmentation on a square board.
  std::size_t sample_count() const;

 private:
  struct MoveRecord {
    TrainSample sample;
    int player;
  };

  // Whether finish() adds the 8-fold symmetries (a square board whose
  // policy covers every cell).
  bool augments() const;

  SelfPlayConfig cfg_;
  int height_;
  int width_;
  int channels_;
  Rng rng_;
  std::unique_ptr<Game> env_;
  EpisodeStats stats_;
  std::vector<MoveRecord> records_;
  std::vector<float> planes_;  // encode() scratch, stored as bytes
};

// Folds an engine's per-move adaptation trace (log entries from index
// `log_begin` on) into episode stats — shared by the SearchEngine episode
// entry point and the MatchService.
void fold_engine_trace(EpisodeStats& stats, const SearchEngine& engine,
                       std::size_t log_begin);

// Plays one episode of `game` (copied) with `search` choosing every move
// (both players share the search/net — standard AlphaZero self-play).
// Samples are appended to `buffer`.
EpisodeStats run_self_play_episode(const Game& game, MctsSearch& search,
                                   ReplayBuffer& buffer,
                                   const SelfPlayConfig& cfg);

// Engine-driven episode: tree reuse across moves, runtime adaptation, and
// the per-move trace in EpisodeStats. Starts from a fresh tree
// (engine.reset_game()).
EpisodeStats run_self_play_episode(const Game& game, SearchEngine& engine,
                                   ReplayBuffer& buffer,
                                   const SelfPlayConfig& cfg);

}  // namespace apm
