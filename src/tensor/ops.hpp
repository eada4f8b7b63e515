#pragma once
// Tensor kernels: packed register-blocked GEMM, im2col/col2im, activations,
// softmax.
//
// Layout contracts (all row-major):
//   gemm        : C[M,N] (+)= A[M,K] * B[K,N]
//   gemm_atb    : C[M,N] (+)= A[K,M]^T * B[K,N]
//   gemm_abt    : C[M,N] (+)= A[M,K] * B[N,K]^T
// These three cover forward, weight-gradient and input-gradient passes of
// both Linear and (via im2col) Conv2d without materialising transposes.
//
// The gemm/gemm_atb family runs on one shared driver: A and B are packed
// into L1-resident panels and consumed by a 4x16 register-blocked
// micro-kernel (MR x NR accumulators held across the whole K loop, no
// per-element branches). The driver optionally fuses a per-row bias
// broadcast and a ReLU into the store epilogue (one pass over C instead of
// GEMM + bias pass + ReLU pass). Every GEMM runs on its calling thread.
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
// The gemm_q8 family is the int8 inference path hosted by the same driver
// skeleton: weights arrive pre-quantized (symmetric per-output-channel
// int8, quantize_rows_int8), activations are quantized to unsigned 8-bit
// during the pack step with an asymmetric per-(K-block, lane) min/scale,
// the 4x16 micro-kernel widen-accumulates u8 x s8 products into int32
// (AVX-512 VNNI vpdpbusd when available, exact scalar otherwise), and the
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
