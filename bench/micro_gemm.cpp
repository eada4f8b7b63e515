// GEMM kernel micro-bench: the seed scalar kernel vs the register-blocked
// kernel, the int8 quantized kernel vs the fp32 kernel, the fused bias+ReLU
// epilogue, the 9x9 paper trunk's conv shapes (lowered vs direct), and the
// end-to-end PolicyValueNet batch sweep (fp32 and int8), all on one thread. Writes a JSON
// baseline (default BENCH_gemm.json, or argv[1]) so kernel regressions are
// diffable — the ISSUE-1 acceptance numbers (single-thread GFLOP/s uplift
// at 256^3, batch-64 vs batch-1 per-position latency) and the ISSUE-6
// acceptance number (int8 vs fp32 packed GFLOP/s at 256^3) come from this
// file.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/net_evaluator.hpp"
#include "nn/conv2d.hpp"
#include "nn/policy_value_net.hpp"
#include "nn/quantize.hpp"
#include "support/timer.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace apm;

// ---- the seed kernel, verbatim, as the uplift baseline ---------------------
namespace seed {
constexpr int kBlockM = 64;
constexpr int kBlockN = 64;
constexpr int kBlockK = 128;

void gemm_block(const float* a, const float* b, float* c, int lda, int ldb,
                int ldc, int i0, int i1, int j0, int j1, int k0, int k1) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * lda;
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int k = k0; k < k1; ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b + static_cast<std::size_t>(k) * ldb;
      for (int j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm(const float* a, const float* b, float* c, int m, int n, int k) {
  std::memset(c, 0, static_cast<std::size_t>(m) * n * sizeof(float));
  for (int i0 = 0; i0 < m; i0 += kBlockM) {
    const int i1 = std::min(i0 + kBlockM, m);
    for (int kk0 = 0; kk0 < k; kk0 += kBlockK) {
      const int kk1 = std::min(kk0 + kBlockK, k);
      for (int j0 = 0; j0 < n; j0 += kBlockN) {
        const int j1 = std::min(j0 + kBlockN, n);
        gemm_block(a, b, c, k, n, n, i0, i1, j0, j1, kk0, kk1);
      }
    }
  }
}
}  // namespace seed

// Runs fn repeatedly for ~min_seconds and returns the best per-call seconds
// (best-of filters scheduler noise, the convention of the fig benches).
template <typename Fn>
double best_seconds(Fn&& fn, double min_seconds = 0.4) {
  double best = 1e30;
  double total = 0.0;
  int reps = 0;
  while (total < min_seconds || reps < 3) {
    Timer t;
    fn();
    const double s = t.elapsed_seconds();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

double gflops(int m, int n, int k, double seconds) {
  return 2.0 * m * n * k / seconds * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_gemm.json";
  Rng rng(42);

  bench::JsonWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }

  // --- square GEMM: seed kernel vs packed kernel ---------------------------
  double seed_256 = 0.0, new_256 = 0.0;
  for (const int n : {64, 128, 256, 384}) {
    Tensor a = Tensor::randn({n, n}, rng, 1.0f);
    Tensor b = Tensor::randn({n, n}, rng, 1.0f);
    Tensor c({n, n});
    const double s_seed = best_seconds(
        [&] { seed::gemm(a.data(), b.data(), c.data(), n, n, n); });
    const double s_new = best_seconds(
        [&] { gemm(a.data(), b.data(), c.data(), n, n, n, false); });
    const double g_seed = gflops(n, n, n, s_seed);
    const double g_new = gflops(n, n, n, s_new);
    std::printf("gemm %4d^3: seed %7.2f GFLOP/s   packed %7.2f GFLOP/s   "
                "(%.2fx)\n", n, g_seed, g_new, g_new / g_seed);
    json.entry("gemm_seed_" + std::to_string(n), g_seed, "GFLOP/s");
    json.entry("gemm_packed_" + std::to_string(n), g_new, "GFLOP/s");
    if (n == 256) {
      seed_256 = g_seed;
      new_256 = g_new;
      json.entry("gemm_uplift_256", g_new / g_seed, "x");
    }
  }

  // --- int8 quantized GEMM vs the fp32 packed kernel -----------------------
  // Same shapes as the fp32 sweep; "GFLOP/s" counts the fp32-equivalent
  // 2mnk work so the ratio is a direct speedup. The int8 path also pays
  // for activation quantization inside the pack, so this is end-to-end
  // kernel cost, not a bare dot-product comparison.
  {
    std::printf("int8 SIMD (VNNI) path: %s\n",
                gemm_q8_simd_enabled() ? "enabled" : "disabled (scalar)");
    json.entry("gemm_q8_simd", gemm_q8_simd_enabled() ? 1.0 : 0.0, "bool");
    for (const int n : {64, 128, 256, 384}) {
      Tensor w = Tensor::randn({n, n}, rng, 1.0f);
      Tensor act = Tensor::randn({n, n}, rng, 1.0f);
      std::vector<std::int8_t> wq(static_cast<std::size_t>(n) * n);
      std::vector<float> wscale(static_cast<std::size_t>(n));
      quantize_rows_int8(w.data(), n, n, wq.data(), wscale.data());
      std::vector<float> bias(static_cast<std::size_t>(n), 0.0f);
      Tensor c({n, n});
      const double s_fp32 = best_seconds(
          [&] { gemm(w.data(), act.data(), c.data(), n, n, n, false); });
      const double s_q8 = best_seconds([&] {
        gemm_q8_bias_relu(wq.data(), wscale.data(), act.data(), bias.data(),
                          c.data(), n, n, n, false);
      });
      const double g_fp32 = gflops(n, n, n, s_fp32);
      const double g_q8 = gflops(n, n, n, s_q8);
      std::printf("gemm_q8 %4d^3: fp32 %7.2f GFLOP/s   int8 %7.2f GFLOP/s   "
                  "(%.2fx)\n", n, g_fp32, g_q8, g_q8 / g_fp32);
      json.entry("gemm_q8_" + std::to_string(n), g_q8, "GFLOP/s");
      if (n == 256) json.entry("gemm_q8_uplift_256", g_q8 / g_fp32, "x");
    }
  }

  // --- fused epilogue vs unfused passes at 256^3 ---------------------------
  {
    const int n = 256;
    Tensor a = Tensor::randn({n, n}, rng, 1.0f);
    Tensor b = Tensor::randn({n, n}, rng, 1.0f);
    Tensor bias = Tensor::randn({n}, rng, 1.0f);
    Tensor c({n, n});
    const double s_fused = best_seconds([&] {
      gemm_bias_relu(a.data(), b.data(), bias.data(), c.data(), n, n, n,
                     true);
    });
    const double s_split = best_seconds([&] {
      gemm(a.data(), b.data(), c.data(), n, n, n, false);
      for (int i = 0; i < n; ++i) {
        float* row = c.data() + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) row[j] += bias[i];
      }
      relu_forward(c.data(), c.data(), c.numel());
    });
    std::printf("gemm+bias+relu 256^3: fused %7.2f GFLOP/s   split %7.2f "
                "GFLOP/s\n", gflops(n, n, n, s_fused),
                gflops(n, n, n, s_split));
    json.entry("gemm_bias_relu_fused_256", gflops(n, n, n, s_fused),
               "GFLOP/s");
    json.entry("gemm_bias_relu_split_256", gflops(n, n, n, s_split),
               "GFLOP/s");
  }

  // --- gemm_abt pack variants ----------------------------------------------
  // gemm_abt (linear forward / conv weight-grad: C = A·Bᵀ with B stored
  // [N,K]) packs B panels by strided gather — each packed column walks K
  // with stride 1 but hops rows of B. The alternative materialises Bᵀ once
  // (naive transpose) and runs the unit-stride gemm pack. The verdict
  // (ROADMAP follow-up) decides whether gemm_abt deserves its own
  // transposed-pack kernel: ratio > 1 means pre-transposing beats the
  // gather pack even after paying for the transpose.
  {
    struct Shape {
      int m, n, k;
      const char* tag;
    };
    for (const Shape s : {Shape{256, 256, 256, "256"},
                          Shape{128, 1152, 900, "wgrad"}}) {
      Tensor a = Tensor::randn({s.m, s.k}, rng, 1.0f);
      Tensor bt = Tensor::randn({s.n, s.k}, rng, 1.0f);  // B as [N,K]
      Tensor btrans({s.k, s.n});
      Tensor c({s.m, s.n});
      const double s_gather = best_seconds([&] {
        gemm_abt(a.data(), bt.data(), c.data(), s.m, s.n, s.k, false);
      });
      const double s_pre = best_seconds([&] {
        for (int j = 0; j < s.n; ++j) {
          const float* src = bt.data() + static_cast<std::size_t>(j) * s.k;
          for (int kk = 0; kk < s.k; ++kk) {
            btrans[static_cast<std::size_t>(kk) * s.n + j] = src[kk];
          }
        }
        gemm(a.data(), btrans.data(), c.data(), s.m, s.n, s.k, false);
      });
      const double g_gather = gflops(s.m, s.n, s.k, s_gather);
      const double g_pre = gflops(s.m, s.n, s.k, s_pre);
      std::printf(
          "gemm_abt %-5s (%dx%dx%d): gather-pack %7.2f GFLOP/s   "
          "pre-transpose %7.2f GFLOP/s   (pretrans/gather %.2fx)\n",
          s.tag, s.m, s.n, s.k, g_gather, g_pre, g_pre / g_gather);
      json.entry(std::string("gemm_abt_gather_") + s.tag, g_gather,
                 "GFLOP/s");
      json.entry(std::string("gemm_abt_pretrans_") + s.tag, g_pre,
                 "GFLOP/s");
      json.entry(std::string("gemm_abt_pretrans_speedup_") + s.tag,
                 g_pre / g_gather, "x");
    }
  }

  // --- the 9x9 paper trunk's conv shapes ----------------------------------
  // conv2 (64 x 288) and conv3 (128 x 576) at N = 81*B: the lowering the
  // profile pass times (im2col_batched + gemm_bias_relu on the weights)
  // against Conv2d::forward, which gathers its panels from the input.
  {
    struct ConvShape {
      const char* tag;
      int cin, cout;
    };
    for (const ConvShape cs : {ConvShape{"conv2", 32, 64},
                               ConvShape{"conv3", 64, 128}}) {
      Conv2d conv(cs.tag, cs.cin, cs.cout, 3);
      conv.init(rng);
      const int kk = cs.cin * 9;
      for (const int batch : {1, 4, 8}) {
        const int cols = batch * 81;
        Tensor x = Tensor::randn({batch, cs.cin, 9, 9}, rng, 1.0f);
        Tensor col({kk, cols}), out({cs.cout, cols}), y;
        ConvWorkspace ws;
        const double s_lowered = best_seconds([&] {
          im2col_batched(x.data(), batch, cs.cin, 9, 9, 3, 1, col.data());
          gemm_bias_relu(conv.weight().value.data(), col.data(),
                         conv.bias().value.data(), out.data(), cs.cout, cols,
                         kk, true);
        });
        const double s_direct = best_seconds(
            [&] { conv.forward(x, y, ws, nullptr, /*fuse_relu=*/true); });
        const std::string tag =
            std::string(cs.tag) + "_b" + std::to_string(batch);
        const double g_lowered = gflops(cs.cout, cols, kk, s_lowered);
        const double g_direct = gflops(cs.cout, cols, kk, s_direct);
        std::printf("%s (%dx%d, N=%d): im2col+gemm %7.1f us %6.1f GFLOP/s   "
                    "Conv2d::forward %7.1f us %6.1f GFLOP/s\n",
                    tag.c_str(), cs.cout, kk, cols, s_lowered * 1e6,
                    g_lowered, s_direct * 1e6, g_direct);
        json.entry(tag + "_im2col_gemm_us", s_lowered * 1e6, "us");
        json.entry(tag + "_im2col_gemm_gflops", g_lowered, "GFLOP/s");
        json.entry(tag + "_forward_us", s_direct * 1e6, "us");
        json.entry(tag + "_forward_gflops", g_direct, "GFLOP/s");
      }
    }
  }

  // --- end-to-end net batch sweep (paper 15x15 config) ---------------------
  // One thread runs every forward pass, as a search thread does when its
  // request completes a batch.
  {
    PolicyValueNet net(NetConfig{}, 7);
    const QuantizedPolicyValueNet qnet(net);
    // fp32 us/eval per batch size, for the int8-vs-fp32 ratios.
    std::vector<std::pair<int, double>> fp32_us;
    // Two sweeps: fp32, then int8 (the serving plane's quantized-lane
    // configuration, the int8 kernels doing the work).
    for (const bool int8 : {false, true}) {
      NetEvaluator eval_fp32(net);
      NetEvaluator eval_int8(qnet);
      NetEvaluator& eval = int8 ? eval_int8 : eval_fp32;
      const std::string tag = int8 ? "net_int8" : "net";
      const std::size_t isz = eval.input_size();
      double us_b1 = 0.0;
      for (const int batch : {1, 8, 32, 64, 128}) {
        Rng xr(static_cast<std::uint64_t>(batch));
        std::vector<float> inputs(static_cast<std::size_t>(batch) * isz);
        for (auto& v : inputs) v = xr.uniform_float();
        std::vector<EvalOutput> outs(static_cast<std::size_t>(batch));
        const double s = best_seconds(
            [&] { eval.evaluate_batch(inputs.data(), batch, outs.data()); },
            0.6);
        const double us_per = s * 1e6 / batch;
        if (batch == 1) us_b1 = us_per;
        if (!int8) fp32_us.emplace_back(batch, us_per);
        std::printf("%s batch %3d: %8.1f us/eval  %8.1f evals/s  "
                    "(%.2fx per-position vs b1)\n",
                    tag.c_str(), batch, us_per, 1e6 / us_per,
                    us_per / us_b1);
        json.entry(tag + "_us_per_eval_b" + std::to_string(batch), us_per,
                   "us");
        json.entry(tag + "_evals_per_sec_b" + std::to_string(batch),
                   1e6 / us_per, "evals/s");
        if (batch == 64) {
          json.entry(tag + "_b64_vs_b1_per_position", us_per / us_b1, "x");
        }
        if (int8) {
          for (const auto& [b, fus] : fp32_us) {
            if (b == batch && (batch == 8 || batch == 64)) {
              json.entry("net_int8_vs_fp32_b" + std::to_string(batch),
                         fus / us_per, "x");
              std::printf("net_int8 vs fp32 at b%d: %.2fx\n", batch,
                          fus / us_per);
            }
          }
        }
      }
    }
  }

  std::printf("single-thread 256^3 uplift vs seed kernel: %.2fx (target 4x)\n",
              new_256 / seed_256);
  std::printf("wrote %s\n", out_path);
  return 0;
}
