#pragma once
// Synthetic benchmark environment for design-time profiling (§4.2): "a
// synthetic tree constructed for one episode with random-generated UCT
// scores, emulating the same fanout and depth limit defined by the
// DNN-MCTS algorithm."
//
// Every position offers exactly `fanout` actions; the game ends after
// `max_depth` moves with a pseudo-random winner derived from the move
// history. Combined with SyntheticEvaluator (hash-derived pseudo-random
// priors), rollouts traverse trees with random UCT scores of the requested
// shape while exercising the production select/expand/backup code paths.

#include <cstdint>
#include <memory>

#include "games/game.hpp"

namespace apm {

class SyntheticGame final : public Game {
 public:
  // encode_cells controls the encoded-state size (profiling the DNN-request
  // payload); the default mimics a 15×15 board.
  SyntheticGame(int fanout, int max_depth, int encode_side = 15);

  std::unique_ptr<Game> clone() const override;

  int action_count() const override { return fanout_; }
  int height() const override { return encode_side_; }
  int width() const override { return encode_side_; }
  std::string name() const override { return "synthetic"; }

  int current_player() const override { return player_; }
  bool is_terminal() const override { return depth_ >= max_depth_; }
  int winner() const override;
  int move_count() const override { return depth_; }
  bool is_legal(int action) const override {
    return !is_terminal() && action >= 0 && action < fanout_;
  }
  void legal_actions(std::vector<int>& out) const override;
  void apply(int action) override;
  std::uint64_t hash() const override { return hash_; }
  // Writes the depth and the player to move into cells 0 and 1, so unlike
  // the real games its planes are not binary (Game::encode()): it profiles
  // searches and is never played into a self-play record.
  void encode(float* planes) const override;
  std::string to_string() const override;

  int max_depth() const { return max_depth_; }

 private:
  int fanout_;
  int max_depth_;
  int encode_side_;
  int depth_ = 0;
  int player_ = 1;
  std::uint64_t hash_ = 0x243F6A8885A308D3ULL;
};

}  // namespace apm
