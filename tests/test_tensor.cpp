// Tensor-kernel tests: GEMM family vs naive references (parameterized over
// shapes), im2col/col2im adjointness, activations, softmax.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace apm {
namespace {

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, int m, int n, int k) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = 2.0f * rng.uniform_float() - 1.0f;
  return v;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

// The seeds below mix the shape in 32-bit int arithmetic that wraps on the
// larger shapes. The mix runs unsigned (no overflow for UBSan to report)
// and converts back, which gives the same seed values.
std::uint64_t shape_seed(std::uint32_t mix) {
  return static_cast<std::uint64_t>(static_cast<std::int32_t>(mix));
}

TEST_P(GemmShapes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(shape_seed(static_cast<std::uint32_t>(m) * 73856093u ^
                     static_cast<std::uint32_t>(n) * 19349663u ^
                     static_cast<std::uint32_t>(k)));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);

  std::vector<float> got(static_cast<std::size_t>(m) * n, -1.0f);
  gemm(a.data(), b.data(), got.data(), m, n, k, /*accumulate=*/false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;
}

TEST_P(GemmShapes, TransposedVariantsMatch) {
  const auto [m, n, k] = GetParam();
  Rng rng(shape_seed(static_cast<std::uint32_t>(m) * 83492791u ^
                     static_cast<std::uint32_t>(n)) ^
          k * 2654435761ULL);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);

  // gemm_atb: pass A laid out as [K, M] (transposed).
  std::vector<float> a_t(static_cast<std::size_t>(k) * m);
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk) a_t[kk * m + i] = a[i * k + kk];
  std::vector<float> got(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_atb(a_t.data(), b.data(), got.data(), m, n, k, false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f);

  // gemm_abt: pass B laid out as [N, K] (transposed).
  std::vector<float> b_t(static_cast<std::size_t>(n) * k);
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];
  std::fill(got.begin(), got.end(), 0.0f);
  gemm_abt(a.data(), b_t.data(), got.data(), m, n, k, false);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{65, 33, 17},
                      std::tuple{128, 70, 129}, std::tuple{1, 64, 200},
                      std::tuple{200, 1, 64},
                      // Ragged shapes straddling the packing tiles
                      // (MR=4, NR=16, MC=64, KC=256): row/column/depth
                      // remainders and the multi-KC epilogue ordering.
                      std::tuple{4, 16, 256}, std::tuple{5, 17, 257},
                      std::tuple{67, 31, 300}, std::tuple{70, 47, 513},
                      std::tuple{129, 18, 64}, std::tuple{63, 15, 255}));

TEST(Gemm, FusedBiasReluMatchesSeparatePasses) {
  for (const auto& [m, n, k] :
       {std::tuple{7, 30, 19}, std::tuple{65, 17, 260}}) {
    Rng rng(static_cast<std::uint64_t>(m + n + k));
    const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
    const auto bias = random_vec(static_cast<std::size_t>(m), rng);

    std::vector<float> expect(static_cast<std::size_t>(m) * n);
    naive_gemm(a, b, expect, m, n, k);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        float& v = expect[static_cast<std::size_t>(i) * n + j];
        v = std::max(v + bias[i], 0.0f);
      }

    std::vector<float> got(static_cast<std::size_t>(m) * n, -7.0f);
    gemm_bias_relu(a.data(), b.data(), bias.data(), got.data(), m, n, k,
                   /*relu=*/true);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;

    // relu=false keeps negative outputs.
    std::vector<float> no_relu(static_cast<std::size_t>(m) * n);
    gemm_bias_relu(a.data(), b.data(), bias.data(), no_relu.data(), m, n, k,
                   /*relu=*/false);
    bool saw_negative = false;
    for (float v : no_relu) saw_negative = saw_negative || v < 0.0f;
    EXPECT_TRUE(saw_negative);
  }
}

TEST(Gemm, FusedAbtBiasReluMatchesSeparatePasses) {
  const int m = 9, n = 21, k = 130;
  Rng rng(31);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto bias = random_vec(static_cast<std::size_t>(n), rng);

  std::vector<float> expect(static_cast<std::size_t>(m) * n);
  naive_gemm(a, b, expect, m, n, k);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float& v = expect[static_cast<std::size_t>(i) * n + j];
      v = std::max(v + bias[j], 0.0f);
    }

  // gemm_abt consumes B as [N, K].
  std::vector<float> b_t(static_cast<std::size_t>(n) * k);
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];
  std::vector<float> got(static_cast<std::size_t>(m) * n);
  gemm_abt_bias_relu(a.data(), b_t.data(), bias.data(), got.data(), m, n, k,
                     /*relu=*/true);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], expect[i], 1e-3f) << "i=" << i;
}

// --- arithmetic order --------------------------------------------------------
// Every fp32 GEMM and the fp32 conv must round exactly like this scalar
// model: within each 256-deep K block an FMA chain from +0 in K order, the
// blocks added onto C in order (the first one stored unless accumulating),
// then the bias, then ReLU. Any tile shape, operand layout or B-panel source
// that keeps this order gives the same bits, which is what keeps play and
// the e2e lane gate bitwise stable across kernel changes.

constexpr int kRefKBlock = 256;

float ref_madd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

// A(i, p) = a[i*a_rs + p*a_ks], B(p, j) = b[p*b_ks + j*b_cs]; C row-major.
void reference_gemm(const float* a, std::size_t a_rs, std::size_t a_ks,
                    const float* b, std::size_t b_ks, std::size_t b_cs,
                    float* c, int m, int n, int k, bool accumulate,
                    const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float& out = c[static_cast<std::size_t>(i) * n + j];
      for (int k0 = 0; k0 < k; k0 += kRefKBlock) {
        float blk = 0.0f;
        for (int p = k0; p < std::min(k, k0 + kRefKBlock); ++p)
          blk = ref_madd(a[i * a_rs + p * a_ks], b[p * b_ks + j * b_cs], blk);
        out = (k0 == 0 && !accumulate) ? blk : out + blk;
      }
      if (k == 0 && !accumulate) out = 0.0f;
      if (row_bias != nullptr) out += row_bias[i];
      if (col_bias != nullptr) out += col_bias[j];
      if (relu) out = std::max(out, 0.0f);
    }
}

::testing::AssertionResult bitwise_equal(const std::vector<float>& got,
                                         const std::vector<float>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
  }
  return ::testing::AssertionSuccess();
}

TEST(ArithmeticOrder, GemmFamilyMatchesScalarReferenceBitwise) {
  // Every M in 1..17 crosses the row tile's remainders; the N values cross
  // the column tile's (16 and 32 wide) and the K values its 256-deep blocks.
  const int ns[] = {1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 81, 100};
  const int ks[] = {1, 4, 255, 256, 257, 576, 600};
  for (const int k : ks)
    for (int m = 1; m <= 17; ++m)
      for (const int n : ns) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                          << " k=" << k);
        Rng rng(static_cast<std::uint64_t>(k) * 1000003u + m * 131u + n);
        const std::size_t mn = static_cast<std::size_t>(m) * n;
        const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
        const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
        const auto row_bias = random_vec(static_cast<std::size_t>(m), rng);
        const auto col_bias = random_vec(static_cast<std::size_t>(n), rng);
        const auto c0 = random_vec(mn, rng);
        // The same operands in the transposed layouts: A as [K, M] and B
        // as [N, K].
        std::vector<float> a_t(a.size()), b_t(b.size());
        for (int i = 0; i < m; ++i)
          for (int p = 0; p < k; ++p)
            a_t[static_cast<std::size_t>(p) * m + i] =
                a[static_cast<std::size_t>(i) * k + p];
        for (int p = 0; p < k; ++p)
          for (int j = 0; j < n; ++j)
            b_t[static_cast<std::size_t>(j) * k + p] =
                b[static_cast<std::size_t>(p) * n + j];
        const bool acc = (m + n) % 2 == 0;
        const bool relu = (m + n) % 3 != 0;

        std::vector<float> want = c0, got = c0;
        reference_gemm(a.data(), k, 1, b.data(), n, 1, want.data(), m, n, k,
                       acc, nullptr, nullptr, false);
        gemm(a.data(), b.data(), got.data(), m, n, k, acc);
        ASSERT_TRUE(bitwise_equal(got, want)) << "gemm";

        got = c0;
        gemm_atb(a_t.data(), b.data(), got.data(), m, n, k, acc);
        ASSERT_TRUE(bitwise_equal(got, want)) << "gemm_atb";

        got = c0;
        gemm_abt(a.data(), b_t.data(), got.data(), m, n, k, acc);
        ASSERT_TRUE(bitwise_equal(got, want)) << "gemm_abt";

        want = c0;
        got = c0;
        reference_gemm(a.data(), k, 1, b.data(), n, 1, want.data(), m, n, k,
                       false, row_bias.data(), nullptr, relu);
        gemm_bias_relu(a.data(), b.data(), row_bias.data(), got.data(), m, n,
                       k, relu);
        ASSERT_TRUE(bitwise_equal(got, want)) << "gemm_bias_relu";

        want = c0;
        got = c0;
        reference_gemm(a.data(), k, 1, b.data(), n, 1, want.data(), m, n, k,
                       false, nullptr, col_bias.data(), relu);
        gemm_abt_bias_relu(a.data(), b_t.data(), col_bias.data(), got.data(),
                           m, n, k, relu);
        ASSERT_TRUE(bitwise_equal(got, want)) << "gemm_abt_bias_relu";
      }
}

TEST(ArithmeticOrder, ConvForwardMatchesScalarReferenceBitwise) {
  struct Case {
    int cin, cout, ksize, h, w;
  };
  // k=3 with K = 270 (two K blocks), k=1 with K = 260; boards that are
  // neither square nor a multiple of any tile width.
  for (const Case cs : {Case{30, 11, 3, 7, 6}, Case{260, 5, 1, 5, 9}}) {
    for (const int batch : {1, 3, 26}) {
      for (const bool cache : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "k=" << cs.ksize << " B="
                                          << batch << " col_cache=" << cache);
        Rng rng(static_cast<std::uint64_t>(cs.ksize * 100 + batch));
        Conv2d conv("c", cs.cin, cs.cout, cs.ksize);
        conv.init(rng);
        // Nonzero biases, so the epilogue's bias add is exercised.
        Tensor& bias = conv.params()[1]->value;
        bias.fill_uniform(rng, -0.5f, 0.5f);
        const int hw = cs.h * cs.w;
        const int kk = cs.cin * cs.ksize * cs.ksize;
        const int cols = batch * hw;
        Tensor x = Tensor::randn({batch, cs.cin, cs.h, cs.w}, rng, 1.0f);

        // Reference: im2col columns, the scalar model, then the
        // [Cout, B*HW] -> [B, Cout, HW] permute.
        std::vector<float> col(static_cast<std::size_t>(kk) * cols);
        im2col_batched(x.data(), batch, cs.cin, cs.h, cs.w, cs.ksize,
                       cs.ksize / 2, col.data());
        std::vector<float> ref(static_cast<std::size_t>(cs.cout) * cols);
        reference_gemm(conv.weight().value.data(), kk, 1, col.data(), cols, 1,
                       ref.data(), cs.cout, cols, kk, false,
                       bias.data(), nullptr, true);
        std::vector<float> lib(ref.size());
        gemm_bias_relu(conv.weight().value.data(), col.data(), bias.data(),
                       lib.data(), cs.cout, cols, kk, true);
        ASSERT_TRUE(bitwise_equal(lib, ref)) << "im2col + gemm_bias_relu";
        std::vector<float> want(ref.size());
        for (int b = 0; b < batch; ++b)
          for (int oc = 0; oc < cs.cout; ++oc)
            for (int s = 0; s < hw; ++s)
              want[(static_cast<std::size_t>(b) * cs.cout + oc) * hw + s] =
                  ref[static_cast<std::size_t>(oc) * cols +
                      static_cast<std::size_t>(b) * hw + s];

        Tensor y, col_cache;
        ConvWorkspace ws;
        conv.forward(x, y, ws, cache ? &col_cache : nullptr,
                     /*fuse_relu=*/true);
        ASSERT_TRUE(bitwise_equal(
            std::vector<float>(y.data(), y.data() + y.numel()), want))
            << "Conv2d::forward";
      }
    }
  }
}

TEST(Im2Col, BatchedMatchesPerSample) {
  const int batch = 3, c = 2, h = 5, w = 4, ksize = 3, pad = 1;
  const int hw = h * w;
  const int kk = c * ksize * ksize;
  Rng rng(17);
  const auto x =
      random_vec(static_cast<std::size_t>(batch) * c * hw, rng);

  std::vector<float> batched(static_cast<std::size_t>(kk) * batch * hw);
  im2col_batched(x.data(), batch, c, h, w, ksize, pad, batched.data());

  std::vector<float> single(static_cast<std::size_t>(kk) * hw);
  for (int b = 0; b < batch; ++b) {
    im2col(x.data() + static_cast<std::size_t>(b) * c * hw, c, h, w, ksize,
           pad, single.data());
    for (int r = 0; r < kk; ++r)
      for (int p = 0; p < hw; ++p) {
        ASSERT_EQ(batched[(static_cast<std::size_t>(r) * batch + b) * hw + p],
                  single[static_cast<std::size_t>(r) * hw + p])
            << "b=" << b << " r=" << r << " p=" << p;
      }
  }
}

TEST(Tensor, ReshapeIsAView) {
  Tensor t({2, 3, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(i);
  const float* before = t.data();
  t.reshape({6, 4});
  EXPECT_EQ(t.data(), before);  // no reallocation, no copy
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_FLOAT_EQ(t.at2(5, 3), 23.0f);
}

TEST(Gemm, AccumulateAddsOntoC) {
  const int m = 4, n = 4, k = 4;
  Rng rng(1);
  const auto a = random_vec(16, rng);
  const auto b = random_vec(16, rng);
  std::vector<float> base(16, 1.0f);
  std::vector<float> expect(16);
  naive_gemm(a, b, expect, m, n, k);
  gemm(a.data(), b.data(), base.data(), m, n, k, /*accumulate=*/true);
  for (int i = 0; i < 16; ++i) ASSERT_NEAR(base[i], expect[i] + 1.0f, 1e-4f);
}

TEST(Im2Col, AdjointOfCol2Im) {
  // <im2col(x), y> == <x, col2im(y)> characterises the adjoint pair, which
  // is exactly the property conv backward relies on.
  const int c = 3, h = 5, w = 4, ksize = 3, pad = 1;
  const std::size_t x_len = static_cast<std::size_t>(c) * h * w;
  const std::size_t col_len = static_cast<std::size_t>(c) * ksize * ksize * h * w;
  Rng rng(99);
  const auto x = random_vec(x_len, rng);
  const auto y = random_vec(col_len, rng);

  std::vector<float> col(col_len);
  im2col(x.data(), c, h, w, ksize, pad, col.data());
  std::vector<float> back(x_len, 0.0f);
  col2im(y.data(), c, h, w, ksize, pad, back.data());

  const float lhs = dot(col.data(), y.data(), col_len);
  const float rhs = dot(x.data(), back.data(), x_len);
  EXPECT_NEAR(lhs, rhs, 1e-2f);
}

TEST(Im2Col, IdentityKernelCopiesChannels) {
  const int c = 2, h = 3, w = 3;
  Rng rng(3);
  const auto x = random_vec(static_cast<std::size_t>(c) * h * w, rng);
  std::vector<float> col(static_cast<std::size_t>(c) * h * w);
  im2col(x.data(), c, h, w, /*ksize=*/1, /*pad=*/0, col.data());
  for (std::size_t i = 0; i < col.size(); ++i) ASSERT_EQ(col[i], x[i]);
}

TEST(Activations, ReluForwardBackward) {
  const float x[4] = {-1.0f, 0.0f, 2.0f, -3.0f};
  float y[4];
  relu_forward(x, y, 4);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  const float dy[4] = {1, 1, 1, 1};
  float dx[4];
  relu_backward(x, dy, dx, 4, false);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Activations, TanhDerivative) {
  const float x[2] = {0.5f, -1.2f};
  float y[2];
  tanh_forward(x, y, 2);
  const float dy[2] = {1.0f, 1.0f};
  float dx[2];
  tanh_backward(y, dy, dx, 2);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(dx[i], 1.0f - std::tanh(x[i]) * std::tanh(x[i]), 1e-6f);
  }
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const float x[6] = {1.0f, 2.0f, 3.0f, -1.0f, 0.0f, 1.0f};
  float y[6];
  softmax_rows(x, y, 2, 3);
  for (int r = 0; r < 2; ++r) {
    float sum_row = 0;
    for (int c = 0; c < 3; ++c) sum_row += y[r * 3 + c];
    EXPECT_NEAR(sum_row, 1.0f, 1e-6f);
    EXPECT_LT(y[r * 3], y[r * 3 + 1]);
    EXPECT_LT(y[r * 3 + 1], y[r * 3 + 2]);
  }
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(8);
  auto x = random_vec(12, rng);
  std::vector<float> sm(12), lsm(12);
  softmax_rows(x.data(), sm.data(), 3, 4);
  log_softmax_rows(x.data(), lsm.data(), 3, 4);
  for (int i = 0; i < 12; ++i)
    EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5f);
}

TEST(Softmax, StableUnderLargeInputs) {
  const float x[3] = {1000.0f, 1001.0f, 999.0f};
  float y[3];
  softmax_rows(x, y, 1, 3);
  EXPECT_FALSE(std::isnan(y[0]));
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-6f);
}

TEST(Tensor, ResizeAndFill) {
  Tensor t({2, 3});
  t.fill(2.5f);
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t[5], 2.5f);
  t.resize({4});  // shrink: no reallocation needed
  EXPECT_EQ(t.numel(), 4u);
  EXPECT_EQ(t.shape_str(), "[4]");
}

TEST(Tensor, RandnMomentsPlausible) {
  Tensor t({10000});
  Rng rng(4);
  t.fill_randn(rng, 2.0f);
  double sum_v = 0, sum_sq = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    sum_v += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum_v / t.numel();
  const double var = sum_sq / t.numel() - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({3}), b({3});
  a.fill(1.0f);
  b.fill(1.0f);
  b[1] = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
}

}  // namespace
}  // namespace apm
