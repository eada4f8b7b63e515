#include "train/replay_buffer.hpp"

#include <cstring>

#include "support/check.hpp"

namespace apm {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  APM_CHECK(capacity >= 1);
  samples_.reserve(capacity);
}

void ReplayBuffer::add(TrainSample sample) {
  if (samples_.size() < capacity_) {
    samples_.push_back(std::move(sample));
  } else {
    samples_[next_] = std::move(sample);
    next_ = (next_ + 1) % capacity_;
  }
}

void ReplayBuffer::sample_batch(Rng& rng, int batch,
                                const std::vector<int>& state_shape,
                                Tensor& states, Tensor& pis,
                                Tensor& zs) const {
  APM_CHECK(!samples_.empty());
  APM_CHECK(batch >= 1);
  std::vector<int> bshape = state_shape;
  APM_CHECK(!bshape.empty());
  bshape[0] = batch;
  states.resize(bshape);
  const std::size_t state_len = states.numel() / batch;
  const std::size_t pi_len = samples_.front().pi.size();
  pis.resize({batch, static_cast<int>(pi_len)});
  zs.resize({batch});

  for (int b = 0; b < batch; ++b) {
    const TrainSample& s = samples_[rng.below(samples_.size())];
    APM_CHECK(s.state.size() == state_len);
    APM_CHECK(s.pi.size() == pi_len);
    float* row = states.data() + static_cast<std::size_t>(b) * state_len;
    for (std::size_t i = 0; i < state_len; ++i) row[i] = s.state[i];
    std::memcpy(pis.data() + static_cast<std::size_t>(b) * pi_len,
                s.pi.data(), pi_len * sizeof(float));
    zs[b] = s.z;
  }
}

void ReplayBuffer::clear() {
  samples_.clear();
  next_ = 0;
}

}  // namespace apm
