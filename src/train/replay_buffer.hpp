#pragma once
// Replay buffer for self-play training data (the `dataset` of Algorithm 1).
//
// Stores (state, π, z) triples: the encoded position, the MCTS action
// prior at that position, and the final game outcome from the position's
// player-to-move perspective. Ring-buffer semantics bound memory; sampling
// assembles contiguous minibatch tensors for PolicyValueNet::train_step.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace apm {

struct TrainSample {
  // The encoded position, C×H×W, one byte per cell: Game::encode() writes
  // only 0 and 1 (EpisodeRunner checks it), so a byte holds the value a
  // float plane would, at a quarter of the memory. sample_batch() widens
  // it back to the same floats.
  std::vector<std::uint8_t> state;
  std::vector<float> pi;  // action_count
  float z = 0.0f;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  void add(TrainSample sample);

  std::size_t size() const { return samples_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return samples_.empty(); }
  const TrainSample& at(std::size_t i) const { return samples_[i]; }

  // Uniformly samples `batch` entries (with replacement) into the given
  // tensors: states [B, C, H, W] (shape supplied by caller via
  // state_shape), pis [B, A], zs [B].
  void sample_batch(Rng& rng, int batch, const std::vector<int>& state_shape,
                    Tensor& states, Tensor& pis, Tensor& zs) const;

  void clear();

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // ring cursor once full
  std::vector<TrainSample> samples_;
};

}  // namespace apm
