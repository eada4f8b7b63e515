#pragma once
// Tensor kernels: register-blocked GEMM, direct convolution, im2col/col2im,
// activations, softmax.
//
// Layout contracts (all row-major):
//   gemm        : C[M,N] (+)= A[M,K] * B[K,N]
//   gemm_atb    : C[M,N] (+)= A[K,M]^T * B[K,N]
//   gemm_abt    : C[M,N] (+)= A[M,K] * B[N,K]^T
// These three cover forward, weight-gradient and input-gradient passes of
// both Linear and (via im2col) Conv2d without materialising transposes.
//
// Every fp32 GEMM runs one tile loop. The micro-kernel holds a tile of C in
// registers across a 256-deep K block: 8 rows x 32 columns in 16 zmm
// accumulators when the build targets AVX-512 (__AVX512F__), otherwise
// 4 x 16 on 8-lane vectors. It reads the A operand in place — row-major
// rows broadcast straight from memory, rows past M from a static zero row
// — and only B is packed, one kNR-wide panel at a time. In every inference
// GEMM A is the constant weights: gemm_bias_relu and conv2d_bias_relu take
// them as A directly, and gemm_abt_bias_relu computes W * x^T and stores
// the tile transposed. The driver fuses a bias broadcast and a ReLU into
// the store epilogue (one pass over C instead of GEMM + bias pass + ReLU
// pass). Every GEMM runs on its calling thread.
//
// Rounding contract: each output element is one FMA chain from +0 per K
// block, in K order; the blocks are added onto C in order, then the bias,
// then ReLU. The tile shape, operand layout and panel source never change
// that order, so every kernel and both tiles give the same bits (pinned by
// the ArithmeticOrder tests against a scalar model).
//
// Verdicts behind the current shape (4-core AVX-512 host, one thread; the
// 9x9 paper net's conv3 is M=128 channels, K=576, N=81 per sample):
//  * The 8x32 zmm tile replaced the 4x16 tile on 8-lane vectors, which
//    filled half of each zmm register: a 256^3 GEMM went from 42.3 to
//    80.2 GFLOP/s (micro_gemm, BENCH_gemm.json).
//  * Weights read in place beat packing them on every call: in a prototype
//    of this driver, conv3's batch-1 GEMM fell from 235-252 to 188-198 us.
//    A copy packed once at load is not kept, because the trainer updates
//    the same net the lanes serve, so it would need invalidating after
//    every optimizer step and checkpoint load.
//  * conv2d_bias_relu gathers its B panels straight from a zero-padded copy
//    of the input, with no im2col buffer. In a traced selfplay_gomoku9 run
//    it took conv3 in 208 us against 54 us of im2col plus 208 us of GEMM on
//    the columns, conv2 in 62 against 28 + 62, and the 1x1 policy conv in 8
//    against 11 + 10: the gather costs the GEMM nothing and the lowering
//    pass goes away. The prototype's scalar direct pack without the gather
//    instructions measured no better than im2col (179.9 vs 178.8 us), so
//    the gather is what pays.
//
// Verdict on intra-op sharding (deleted): a thread pool that split each
// GEMM's row blocks or column ranges across threads took a 512^3 GEMM from
// 57.7 to 105.6 and 128.3 GFLOP/s on 1/2/4 threads (4-core AVX-512 host),
// yet the whole net gained only about 1.6x at batch 8 with a 4-thread
// pool, and no serving path ever turned it on. A blocking evaluate() runs
// the batch it completes on its own thread, so every search thread already
// runs its own forward pass on its own core (the paper's Eq. 3) and a GEMM
// pool would only contend for the same cores. Parallelism lives above the
// kernels.
//
// The gemm_q8 family is the int8 inference path. It keeps the packed
// 4x16 driver: weights arrive pre-quantized (symmetric per-output-channel
// int8, quantize_rows_int8), activations are quantized to unsigned 8-bit
// during the pack step with an asymmetric per-(K-block, lane) min/scale,
// the micro-kernel widen-accumulates u8 x s8 products into int32 (AVX-512
// VNNI vpdpbusd when available, exact scalar otherwise), and the
// dequantization — plus the same fused bias/ReLU — happens in the store
// epilogue. Integer accumulation is exact, so int8 results are bitwise
// identical across the SIMD/scalar kernels.

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace apm {

// --- GEMM family -----------------------------------------------------------

// C[M,N] op= A[M,K]*B[K,N]; op is += when accumulate, = otherwise.
void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool accumulate);

// Fused epilogue: C[M,N] = A[M,K]*B[K,N] + bias[i] (broadcast along the
// row), then ReLU when `relu`. `bias` may be nullptr (no bias). This is the
// convolution forward shape, where row i is output channel i.
void gemm_bias_relu(const float* a, const float* b, const float* bias,
                    float* c, int m, int n, int k, bool relu);

// C[M,N] op= A[K,M]^T * B[K,N].
void gemm_atb(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate);

// C[M,N] op= A[M,K] * B[N,K]^T.
void gemm_abt(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate);

// Fused linear-layer forward: C[M,N] = A[M,K]*B[N,K]^T + bias[j] (broadcast
// down the column, i.e. per output feature), then ReLU when `relu`. `bias`
// may be nullptr.
void gemm_abt_bias_relu(const float* a, const float* b, const float* bias,
                        float* c, int m, int n, int k, bool relu);

// Stride-1 "same" convolution forward, fp32 inference:
// y[B, M, H, W] = W[M, C*k*k] * lower(x[B, C, H, W]) + bias[row], then ReLU
// when `relu`, with padding k/2. The lowered input is never built: the B
// panels are gathered straight from a zero-padded copy of x, and the output
// is written in [B, M, H, W] order directly. Bitwise equal to im2col_batched
// followed by gemm_bias_relu and the permute. `bias` may be nullptr.
void conv2d_bias_relu(const float* w, const float* x, const float* bias,
                      float* y, int batch, int channels, int height,
                      int width, int ksize, int out_channels, bool relu);

// --- int8 quantized GEMM family ---------------------------------------------

// Symmetric per-row int8 weight quantization: wq[r][p] = round(w[r][p] /
// scales[r]) with scales[r] = max|w[r]| / 127 (rows of all zeros get scale
// 1). Row r is an output channel in both conv ([Cout, Cin*k*k]) and linear
// ([Out, In]) weight layouts, so this is the per-output-channel pass the
// fp32 -> int8 net conversion runs once per layer.
void quantize_rows_int8(const float* w, int rows, int k, std::int8_t* wq,
                        float* scales);

// Quantized convolution-forward shape: C[M,N] = dequant(Wq[M,K] * q8(B[K,N]))
// + bias[row i], then ReLU when `relu`. Wq/wscales from quantize_rows_int8;
// B (the im2col activations) is quantized on the fly during the pack step.
// `bias` may be nullptr.
void gemm_q8_bias_relu(const std::int8_t* wq, const float* wscales,
                       const float* b, const float* bias, float* c, int m,
                       int n, int k, bool relu);

// The pre-deletion signature with a null pool argument, kept only for
// bench/e2e/nn_profile.hpp's profile pass, which calls it that way.
inline void gemm_q8_bias_relu(std::nullptr_t, const std::int8_t* wq,
                              const float* wscales, const float* b,
                              const float* bias, float* c, int m, int n,
                              int k, bool relu) {
  gemm_q8_bias_relu(wq, wscales, b, bias, c, m, n, k, relu);
}

// Quantized linear-forward shape: C[M,N] = dequant(q8(A[M,K]) * Wq[N,K]^T)
// + bias[col j], then ReLU when `relu`. A (the activations) is quantized on
// the fly; Wq holds the [Out, In] weight rows as int8.
void gemm_q8_abt_bias_relu(const float* a, const std::int8_t* wq,
                           const float* wscales, const float* bias, float* c,
                           int m, int n, int k, bool relu);

// True when the AVX-512 VNNI micro-kernel is compiled in (the scalar
// fallback computes bit-identical results, only slower).
bool gemm_q8_simd_enabled();

// --- convolution lowering ---------------------------------------------------

// Lowers one image x[C,H,W] to columns col[C*k*k, H*W] for a k×k
// convolution with `pad` zero padding and stride 1 (output spatial size
// equals input spatial size when pad == k/2, which is all this library
// uses).
void im2col(const float* x, int channels, int height, int width, int ksize,
            int pad, float* col);

// Whole-batch lowering: x[B,C,H,W] -> col[C*k*k, B*H*W] with column index
// b*H*W + oy*W + ox. One call feeds a single large GEMM covering the entire
// batch (N = B·H·W) instead of B tiny per-sample GEMMs.
void im2col_batched(const float* x, int batch, int channels, int height,
                    int width, int ksize, int pad, float* col);

// Adjoint of im2col: accumulates columns back into dx[C,H,W]. dx must be
// zeroed by the caller.
void col2im(const float* col, int channels, int height, int width, int ksize,
            int pad, float* dx);

// --- element-wise -----------------------------------------------------------

void relu_forward(const float* x, float* y, std::size_t n);
// dx = dy where x > 0 else 0 (accumulates into dx when accumulate).
void relu_backward(const float* x, const float* dy, float* dx, std::size_t n,
                   bool accumulate);

void tanh_forward(const float* x, float* y, std::size_t n);
// dx = dy * (1 - y^2).
void tanh_backward(const float* y, const float* dy, float* dx, std::size_t n);

// y += x
void axpy(float alpha, const float* x, float* y, std::size_t n);

// --- softmax ----------------------------------------------------------------

// Row-wise softmax: x[rows, cols] -> y[rows, cols]. Numerically stable.
void softmax_rows(const float* x, float* y, int rows, int cols);

// Row-wise log-softmax.
void log_softmax_rows(const float* x, float* y, int rows, int cols);

// --- reductions --------------------------------------------------------------

float sum(const float* x, std::size_t n);
float dot(const float* a, const float* b, std::size_t n);
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace apm
