#pragma once
// Abstract two-player, zero-sum, perfect-information game environment.
//
// This is the "existing high-level libraries for simulating various
// benchmarks" interface of the paper's program template: MCTS and the
// training pipeline only ever touch this API, so adding a benchmark means
// implementing one subclass.
//
// Conventions:
//  * Players are +1 (moves first) and −1.
//  * Actions are dense integers in [0, action_count()).
//  * winner() is +1/−1 for a decided game, 0 for draw-or-ongoing.
//  * encode() writes `encode_channels() × height × width` floats from the
//    perspective of the player to move (plane 0 = own stones), which is the
//    input convention of PolicyValueNet. Every value is 0 or 1 (see
//    encode()).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace apm {

class Game {
 public:
  virtual ~Game() = default;

  virtual std::unique_ptr<Game> clone() const = 0;

  // --- static properties ---
  virtual int action_count() const = 0;
  virtual int height() const = 0;
  virtual int width() const = 0;
  virtual int encode_channels() const { return 4; }
  virtual std::string name() const = 0;

  // --- dynamic state ---
  virtual int current_player() const = 0;
  virtual bool is_terminal() const = 0;
  virtual int winner() const = 0;
  virtual int move_count() const = 0;
  virtual bool is_legal(int action) const = 0;
  virtual void legal_actions(std::vector<int>& out) const = 0;
  virtual void apply(int action) = 0;

  // Incremental Zobrist hash of the position (player-to-move included).
  // Move-order invariant: transpositions share one hash.
  virtual std::uint64_t hash() const = 0;

  // Cache key for NN evaluations: a hash of EVERYTHING encode() depends on.
  // hash() covers stones + side to move, but games whose encoding also
  // marks the last move (Connect4/Gomoku/Othello plane 2) must extend it —
  // two transpositions with different last moves encode differently and
  // may evaluate differently, so they must never share an eval-cache
  // entry. The default is hash() for games whose encoding is a pure
  // function of the position; last-move-plane games implement it as
  // mix_last_move(hash(), <last move cell>).
  virtual std::uint64_t eval_key() const { return hash(); }

  // The one shared mixing scheme for extending a position hash with the
  // last-move plane (cell < 0 = no marker yet). Keying on a single scheme
  // matters: PR 4's under-keying bug was exactly a divergence between
  // encode() inputs and the cache key, and three per-game copies would
  // invite the next one.
  static std::uint64_t mix_last_move(std::uint64_t hash, int cell) {
    if (cell < 0) return hash;
    std::uint64_t mix = static_cast<std::uint64_t>(cell) + 1;
    return hash ^ splitmix64(mix);
  }

  // NN input; see class comment for the layout contract. Planes are binary:
  // every value written is exactly 0.0f or 1.0f. A self-play record stores
  // the position at one byte per cell (TrainSample::state), and
  // EpisodeRunner fails an APM_CHECK on any other value. SyntheticGame
  // (perfmodel/), a profiling stand-in that never reaches a record, is the
  // one exception.
  virtual void encode(float* planes) const = 0;

  virtual std::string to_string() const = 0;

  // --- derived helpers ---
  std::size_t encode_size() const {
    return static_cast<std::size_t>(encode_channels()) * height() * width();
  }

  // Terminal value from the perspective of the player to move:
  // −1 if the opponent just won, 0 for a draw. (The side to move can never
  // have already won in an alternating-move game.)
  float terminal_value() const;

  int num_legal_actions() const;
};

}  // namespace apm
