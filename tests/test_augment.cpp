// Symmetry-augmentation tests: mass preservation, involution properties,
// correctness of the rotation mapping on a known pattern.

#include <gtest/gtest.h>

#include <numeric>

#include "train/augment.hpp"

namespace apm {
namespace {

TrainSample corner_sample(int side, int channels) {
  TrainSample s;
  const std::size_t plane = static_cast<std::size_t>(side) * side;
  s.state.assign(channels * plane, 0.0f);
  s.pi.assign(plane, 0.0f);
  s.state[0] = 1.0f;  // channel 0, top-left corner
  s.pi[0] = 0.75f;
  s.pi[1] = 0.25f;  // and its right neighbour
  s.z = 0.5f;
  return s;
}

TEST(Augment, IdentityTransformIsNoOp) {
  const TrainSample s = corner_sample(3, 2);
  const TrainSample t = transform_sample(s, 2, 3, 0);
  EXPECT_EQ(t.state, s.state);
  EXPECT_EQ(t.pi, s.pi);
  EXPECT_FLOAT_EQ(t.z, s.z);
}

TEST(Augment, Rotation90MovesCornerCorrectly) {
  const TrainSample s = corner_sample(3, 1);
  // transform 2 = rotate 90° clockwise: (0,0) → (0, 2).
  const TrainSample t = transform_sample(s, 1, 3, 2);
  EXPECT_FLOAT_EQ(t.pi[2], 0.75f);
  EXPECT_FLOAT_EQ(t.state[2], 1.0f);
  // Neighbour (0,1) → (1,2).
  EXPECT_FLOAT_EQ(t.pi[1 * 3 + 2], 0.25f);
}

TEST(Augment, FlipIsInvolution) {
  const TrainSample s = corner_sample(5, 3);
  const TrainSample once = transform_sample(s, 3, 5, 1);
  const TrainSample twice = transform_sample(once, 3, 5, 1);
  EXPECT_EQ(twice.state, s.state);
  EXPECT_EQ(twice.pi, s.pi);
}

TEST(Augment, FourRotationsComposeToIdentity) {
  const TrainSample s = corner_sample(4, 2);
  TrainSample t = s;
  for (int i = 0; i < 4; ++i) t = transform_sample(t, 2, 4, 2);
  EXPECT_EQ(t.state, s.state);
  EXPECT_EQ(t.pi, s.pi);
}

TEST(Augment, AllTransformsPreservePiMassAndZ) {
  Rng rng(44);
  TrainSample s;
  const int side = 5, channels = 4;
  const std::size_t plane = side * side;
  s.state.resize(channels * plane);
  s.pi.resize(plane);
  // Random 0/1 cells: a byte state holds only what encode() writes.
  for (auto& v : s.state) v = rng.uniform_float() < 0.5f ? 1 : 0;
  float total = 0;
  for (auto& v : s.pi) {
    v = rng.uniform_float();
    total += v;
  }
  for (auto& v : s.pi) v /= total;
  s.z = -0.25f;

  for (int t = 0; t < 8; ++t) {
    const TrainSample out = transform_sample(s, channels, side, t);
    const float mass =
        std::accumulate(out.pi.begin(), out.pi.end(), 0.0f);
    EXPECT_NEAR(mass, 1.0f, 1e-5f) << "t=" << t;
    EXPECT_FLOAT_EQ(out.z, s.z);
    // State content is a permutation: per-channel sums preserved.
    for (int c = 0; c < channels; ++c) {
      const float in_sum = std::accumulate(
          s.state.begin() + c * plane, s.state.begin() + (c + 1) * plane,
          0.0f);
      const float out_sum = std::accumulate(
          out.state.begin() + c * plane,
          out.state.begin() + (c + 1) * plane, 0.0f);
      EXPECT_NEAR(in_sum, out_sum, 1e-4f);
    }
  }
}

TEST(Augment, SymmetriesAreDistinctForAsymmetricPattern) {
  const TrainSample s = corner_sample(4, 1);
  std::vector<TrainSample> out;
  augment_symmetries(s, 1, 4, out);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NE(out[i].pi, s.pi) << "transform " << i + 1;
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_NE(out[i].pi, out[j].pi) << i + 1 << " vs " << j + 1;
    }
  }
}

}  // namespace
}  // namespace apm
