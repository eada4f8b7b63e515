#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#define APM_F32_ZMM 1
#if defined(__AVX512VNNI__)
#define APM_Q8_VNNI 1
#endif
#endif

#include "support/check.hpp"

namespace apm {
namespace {

// fp32 tile: the micro-kernel holds a kMR x kNR block of C in registers
// across one K block. AVX-512 builds take 8 rows x 32 columns, 16 zmm
// accumulators; every other build keeps the 4x16 tile on 8-lane vectors.
#if defined(APM_F32_ZMM)
constexpr int kMR = 8;
constexpr int kNR = 32;
#else
constexpr int kMR = 4;
constexpr int kNR = 16;
#endif
// K depth per block. Each output element's FMA chain restarts at every
// block boundary and the blocks are added onto C in order, so this constant
// is part of the rounding contract (ArithmeticOrder tests).
constexpr int kKC = 256;

// Per-thread buffers (sized once, reused across calls).
template <typename T>
T* pack_buffer(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}
thread_local std::vector<float> tl_bpack;          // one B panel
thread_local std::vector<float> tl_xpad;           // conv: padded input
thread_local std::vector<std::int32_t> tl_col_base;   // conv: per column
thread_local std::vector<std::int32_t> tl_row_shift;  // conv: per K row

// What the kernel reads for a row of A past M.
alignas(64) constexpr float kZeroRow[kKC] = {};

// The A operand, read in place: element (i, p) sits at a[i*rs + p*ks].
// Row-major A is (rs, ks) = (lda, 1); gemm_atb's A, stored [K, M], is
// (1, M). In every inference GEMM this operand is the constant weights.
struct AOperand {
  const float* a;
  std::size_t rs;
  std::size_t ks;
};

// Packs rows [0, kc) x columns [0, nc) of a row-major B into one kNR-wide
// panel bp[p*kNR + j], zero-padded past nc.
void pack_b(const float* b, std::size_t ldb, int kc, int nc, float* dst) {
  for (int p = 0; p < kc; ++p) {
    float* d = dst + static_cast<std::size_t>(p) * kNR;
    std::memcpy(d, b + p * ldb, static_cast<std::size_t>(nc) * sizeof(float));
    for (int j = nc; j < kNR; ++j) d[j] = 0.0f;
  }
}

// The same panel from a B stored transposed ([N, K] row-major): column j of
// the panel is source row j.
void pack_b_t(const float* bt, std::size_t ldbt, int kc, int nc,
              float* dst) {
  for (int j = 0; j < nc; ++j) {
    const float* src = bt + j * ldbt;
    for (int p = 0; p < kc; ++p) dst[p * kNR + j] = src[p];
  }
  for (int j = nc; j < kNR; ++j)
    for (int p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0f;
}

// A convolution's B panel, gathered from its zero-padded input: element
// (p, j) is xp[base[j] + shift[p]], where base is the column's receptive
// field origin and shift the row's (channel, ky, kx) offset. Two
// vgatherdps fetch a 32-column row; columns past nc read nothing and hold
// 0.
void gather_b(const float* xp, const std::int32_t* base, int nc,
              const std::int32_t* shift, int kc, float* dst) {
#if defined(APM_F32_ZMM)
  const auto mask = [](int cols) {
    return static_cast<__mmask16>(cols >= 16 ? 0xFFFFu
                                  : cols <= 0 ? 0u
                                              : (1u << cols) - 1u);
  };
  const __mmask16 m0 = mask(nc);
  const __mmask16 m1 = mask(nc - 16);
  const __m512i base0 = _mm512_maskz_loadu_epi32(m0, base);
  const __m512i base1 = _mm512_maskz_loadu_epi32(m1, base + 16);
  const __m512 zero = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512i s = _mm512_set1_epi32(shift[p]);
    float* d = dst + static_cast<std::size_t>(p) * kNR;
    _mm512_storeu_ps(d, _mm512_mask_i32gather_ps(
                            zero, m0, _mm512_add_epi32(base0, s), xp, 4));
    _mm512_storeu_ps(d + 16, _mm512_mask_i32gather_ps(
                                 zero, m1, _mm512_add_epi32(base1, s), xp, 4));
  }
#else
  for (int p = 0; p < kc; ++p) {
    float* d = dst + static_cast<std::size_t>(p) * kNR;
    const float* src = xp + shift[p];
    for (int j = 0; j < nc; ++j) d[j] = src[base[j]];
    for (int j = nc; j < kNR; ++j) d[j] = 0.0f;
  }
#endif
}

// Micro-kernel: acc[r][j] = sum over p < kc of A(r, p) * bp[p][j], where
// row r of A is rows[r][p*ks]. Each accumulator lane is one FMA chain from
// +0 in K order. A is broadcast straight from its rows (read in place), B
// comes from the packed panel. No per-element branches: rows past M point
// at readable memory and their accumulators are never stored.
#if defined(APM_F32_ZMM)
void micro_kernel(const float* const* rows, std::size_t ks,
                  const float* __restrict bp, int kc,
                  float* __restrict acc) {
  const float* a0 = rows[0];
  const float* a1 = rows[1];
  const float* a2 = rows[2];
  const float* a3 = rows[3];
  const float* a4 = rows[4];
  const float* a5 = rows[5];
  const float* a6 = rows[6];
  const float* a7 = rows[7];
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
  __m512 c60 = _mm512_setzero_ps(), c61 = _mm512_setzero_ps();
  __m512 c70 = _mm512_setzero_ps(), c71 = _mm512_setzero_ps();
  std::size_t o = 0;
  for (int p = 0; p < kc; ++p, o += ks) {
    const __m512 b0 = _mm512_loadu_ps(bp + static_cast<std::size_t>(p) * kNR);
    const __m512 b1 =
        _mm512_loadu_ps(bp + static_cast<std::size_t>(p) * kNR + 16);
    __m512 a = _mm512_set1_ps(a0[o]);
    c00 = _mm512_fmadd_ps(a, b0, c00);
    c01 = _mm512_fmadd_ps(a, b1, c01);
    a = _mm512_set1_ps(a1[o]);
    c10 = _mm512_fmadd_ps(a, b0, c10);
    c11 = _mm512_fmadd_ps(a, b1, c11);
    a = _mm512_set1_ps(a2[o]);
    c20 = _mm512_fmadd_ps(a, b0, c20);
    c21 = _mm512_fmadd_ps(a, b1, c21);
    a = _mm512_set1_ps(a3[o]);
    c30 = _mm512_fmadd_ps(a, b0, c30);
    c31 = _mm512_fmadd_ps(a, b1, c31);
    a = _mm512_set1_ps(a4[o]);
    c40 = _mm512_fmadd_ps(a, b0, c40);
    c41 = _mm512_fmadd_ps(a, b1, c41);
    a = _mm512_set1_ps(a5[o]);
    c50 = _mm512_fmadd_ps(a, b0, c50);
    c51 = _mm512_fmadd_ps(a, b1, c51);
    a = _mm512_set1_ps(a6[o]);
    c60 = _mm512_fmadd_ps(a, b0, c60);
    c61 = _mm512_fmadd_ps(a, b1, c61);
    a = _mm512_set1_ps(a7[o]);
    c70 = _mm512_fmadd_ps(a, b0, c70);
    c71 = _mm512_fmadd_ps(a, b1, c71);
  }
  _mm512_storeu_ps(acc + 0 * kNR, c00);
  _mm512_storeu_ps(acc + 0 * kNR + 16, c01);
  _mm512_storeu_ps(acc + 1 * kNR, c10);
  _mm512_storeu_ps(acc + 1 * kNR + 16, c11);
  _mm512_storeu_ps(acc + 2 * kNR, c20);
  _mm512_storeu_ps(acc + 2 * kNR + 16, c21);
  _mm512_storeu_ps(acc + 3 * kNR, c30);
  _mm512_storeu_ps(acc + 3 * kNR + 16, c31);
  _mm512_storeu_ps(acc + 4 * kNR, c40);
  _mm512_storeu_ps(acc + 4 * kNR + 16, c41);
  _mm512_storeu_ps(acc + 5 * kNR, c50);
  _mm512_storeu_ps(acc + 5 * kNR + 16, c51);
  _mm512_storeu_ps(acc + 6 * kNR, c60);
  _mm512_storeu_ps(acc + 6 * kNR + 16, c61);
  _mm512_storeu_ps(acc + 7 * kNR, c70);
  _mm512_storeu_ps(acc + 7 * kNR + 16, c71);
}
#elif defined(__GNUC__) || defined(__clang__)
// The fallback 4x16 tile. GCC's auto-vectoriser rejects this shape as "not
// profitable", so the vectors are spelled out with the GCC/Clang vector
// extension — 8-lane ops lower to AVX/NEON as available, and c += a * b
// contracts to an FMA wherever the target has one.
using v8f = float __attribute__((vector_size(32), aligned(4)));

void micro_kernel(const float* const* rows, std::size_t ks,
                  const float* __restrict bp, int kc,
                  float* __restrict acc) {
  const float* a0 = rows[0];
  const float* a1 = rows[1];
  const float* a2 = rows[2];
  const float* a3 = rows[3];
  v8f c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  std::size_t o = 0;
  for (int p = 0; p < kc; ++p, o += ks) {
    // memcpy loads keep the panel reads unaligned-safe and avoid passing
    // vector types across function boundaries (-Wpsabi on non-AVX builds).
    v8f b0, b1;
    std::memcpy(&b0, bp + static_cast<std::size_t>(p) * kNR, sizeof(b0));
    std::memcpy(&b1, bp + static_cast<std::size_t>(p) * kNR + 8, sizeof(b1));
    const float x0 = a0[o];
    const float x1 = a1[o];
    const float x2 = a2[o];
    const float x3 = a3[o];
    c00 += x0 * b0;
    c01 += x0 * b1;
    c10 += x1 * b0;
    c11 += x1 * b1;
    c20 += x2 * b0;
    c21 += x2 * b1;
    c30 += x3 * b0;
    c31 += x3 * b1;
  }
  std::memcpy(acc + 0 * kNR, &c00, 32);
  std::memcpy(acc + 0 * kNR + 8, &c01, 32);
  std::memcpy(acc + 1 * kNR, &c10, 32);
  std::memcpy(acc + 1 * kNR + 8, &c11, 32);
  std::memcpy(acc + 2 * kNR, &c20, 32);
  std::memcpy(acc + 2 * kNR + 8, &c21, 32);
  std::memcpy(acc + 3 * kNR, &c30, 32);
  std::memcpy(acc + 3 * kNR + 8, &c31, 32);
}
#else
void micro_kernel(const float* const* rows, std::size_t ks,
                  const float* __restrict bp, int kc,
                  float* __restrict acc) {
  float c[kMR][kNR] = {};
  for (int p = 0; p < kc; ++p) {
    const float* __restrict bv = bp + static_cast<std::size_t>(p) * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float x = rows[r][p * ks];
      for (int j = 0; j < kNR; ++j) c[r][j] += x * bv[j];
    }
  }
  std::memcpy(acc, c, sizeof c);
}
#endif

// Writes a rows x cols micro-tile (row stride ald) into C at c (row stride
// ldc). `first` selects store vs accumulate for the leading K block; `last`
// applies the fused epilogue once the full K extent has been reduced: the
// row bias, the column bias (both already offset to the tile), then ReLU.
void store_tile(float* c, std::size_t ldc, const float* acc, int ald,
                int rows, int cols, bool first, bool last, bool accumulate,
                const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + static_cast<std::size_t>(i) * ald;
    if (first && !accumulate) {
      for (int j = 0; j < cols; ++j) crow[j] = arow[j];
    } else {
      for (int j = 0; j < cols; ++j) crow[j] += arow[j];
    }
    if (last) {
      if (row_bias != nullptr) {
        const float bi = row_bias[i];
        for (int j = 0; j < cols; ++j) crow[j] += bi;
      }
      if (col_bias != nullptr) {
        for (int j = 0; j < cols; ++j) crow[j] += col_bias[j];
      }
      if (relu) {
        for (int j = 0; j < cols; ++j) crow[j] = std::max(crow[j], 0.0f);
      }
    }
  }
}

// The one fp32 tile loop. For each kNR-column panel and K block, pack_b
// fills the panel bp; every kMR-row tile of A then runs the micro-kernel
// over it and hands the accumulators to store(acc, i0, j0, mr, nr, first,
// last). Each tile's K blocks reach store in order.
template <typename PackB, typename Store>
void gemm_tiles(AOperand a, int m, int n, int k, const PackB& pack_b_panel,
                const Store& store) {
  float* bp = pack_buffer(tl_bpack, static_cast<std::size_t>(kKC) * kNR);
  alignas(64) float acc[kMR * kNR];
  const float* rows[kMR];
  for (int j0 = 0; j0 < n; j0 += kNR) {
    const int nr = std::min(kNR, n - j0);
    for (int k0 = 0; k0 < k; k0 += kKC) {
      const int kc = std::min(kKC, k - k0);
      pack_b_panel(j0, nr, k0, kc, bp);
      for (int i0 = 0; i0 < m; i0 += kMR) {
        const int mr = std::min(kMR, m - i0);
        // Rows past M read the static zero row, or repeat row 0 when A is
        // stored transposed and has no contiguous row to point at.
        for (int r = 0; r < kMR; ++r) {
          rows[r] = r < mr ? a.a + (i0 + r) * a.rs + k0 * a.ks
                    : a.ks == 1 ? kZeroRow
                                : rows[0];
        }
        micro_kernel(rows, a.ks, bp, kc, acc);
        store(acc, i0, j0, mr, nr, k0 == 0, k0 + kc == k);
      }
    }
  }
}

// C's epilogue over an empty sum (K = 0).
void gemm_empty_k(float* c, int m, int n, bool accumulate,
                  const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (!accumulate) std::memset(crow, 0, static_cast<std::size_t>(n) * 4);
    if (row_bias) for (int j = 0; j < n; ++j) crow[j] += row_bias[i];
    if (col_bias) for (int j = 0; j < n; ++j) crow[j] += col_bias[j];
    if (relu) for (int j = 0; j < n; ++j) crow[j] = std::max(crow[j], 0.0f);
  }
}

// C[M,N] (+)= A*B (+ row bias, ReLU) into row-major C, with A in place and
// B row-major ([K, N]) or transposed ([N, K]). Bias and ReLU require
// accumulate == false.
void gemm_driver(AOperand a, const float* b, bool b_trans,
                 const float* row_bias, float* c, int m, int n, int k,
                 bool accumulate, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  APM_DCHECK(!(accumulate && (row_bias || relu)));
  if (m == 0 || n == 0) return;
  if (k == 0) {
    gemm_empty_k(c, m, n, accumulate, row_bias, nullptr, relu);
    return;
  }
  const std::size_t ldc = static_cast<std::size_t>(n);
  const auto store = [&](const float* acc, int i0, int j0, int mr, int nr,
                         bool first, bool last) {
    store_tile(c + i0 * ldc + j0, ldc, acc, kNR, mr, nr, first, last,
               accumulate, row_bias != nullptr ? row_bias + i0 : nullptr,
               nullptr, relu);
  };
  if (b_trans) {
    gemm_tiles(a, m, n, k,
               [&](int j0, int nr, int k0, int kc, float* dst) {
                 pack_b_t(b + static_cast<std::size_t>(j0) * k + k0, k, kc,
                          nr, dst);
               },
               store);
  } else {
    gemm_tiles(a, m, n, k,
               [&](int j0, int nr, int k0, int kc, float* dst) {
                 pack_b(b + static_cast<std::size_t>(k0) * n + j0, n, kc, nr,
                        dst);
               },
               store);
  }
}

// --- int8 quantized GEMM ----------------------------------------------------
// The int8 driver packs both operands on every call: kQMR x kQNR (4x16)
// tiles, kMC-row weight blocks, kNC-column activation blocks, and K in the
// same kKC blocks as fp32. The panels hold 8-bit integers grouped in K-quads
// of 4 — the shape vpdpbusd consumes: one 64-byte panel vector is 16 lanes
// x 4 consecutive K steps. The weight side is pre-quantized signed int8
// with a per-row (output-channel) scale ws; the activation side is
// quantized during the pack with an asymmetric per-(K-block, lane)
// min/scale,
//
//     x ~= lo + q * as,   q in [0, 255]  (lo <= 0 <= hi widens the range
//                                         so 0 is always representable),
//
// so a K-block's exact integer product dequantizes as
//
//     sum_p w x  ~=  ws * as * sum_p(wq * q)  +  ws * lo * sum_p(wq),
//
// with sum_p(wq) (per row, per K-block) computed once at weight-pack time.
// Zero padding is exact on the weight side (wq = 0 annihilates whatever the
// padded activation byte holds), so the kernels never branch on remainders.
// Accumulators span one K-block: |sum| <= kKC * 255 * 127 ~= 8.3e6, far
// from int32 overflow. C accumulates across K-blocks in float with the
// fixed block order, so — with exact integer tiles — results are bitwise
// identical for the SIMD vs scalar kernels.
constexpr int kQMR = 4;
constexpr int kQNR = 16;
constexpr int kMC = 64;    // rows of C per packed weight block
constexpr int kNC = 1024;  // columns of C per packed activation block

// Runs a region's m-block loop nest, fn(0, m_blocks), behind a call the
// compiler cannot inline. The nest used to sit behind a std::function for
// intra-op sharding. Inlined into gemm_q8_region, it ran the int8 9x9 paper
// trunk 5-8% slower at batches 4 and 8 on one core; out of line it stays
// within noise of the std::function build.
template <typename Fn>
[[gnu::noinline]] void run_m_blocks(int m_blocks, const Fn& fn) {
  fn(0, m_blocks);
}

thread_local std::vector<std::uint8_t> tl_q8_apack;
thread_local std::vector<std::uint8_t> tl_q8_bpack;
thread_local std::vector<std::uint8_t> tl_q8_qtmp;  // row-major u8 staging
thread_local std::vector<float> tl_q8_a_scale;
thread_local std::vector<float> tl_q8_a_corr;
thread_local std::vector<float> tl_q8_b_scale;
thread_local std::vector<float> tl_q8_b_corr;
thread_local std::vector<float> tl_q8_lo;
thread_local std::vector<float> tl_q8_inv;
thread_local std::vector<std::int32_t> tl_q8_wqsum;

// Quantizes the activation block b[kc x nc] (row-major, leading dim ldb)
// into kQNR-lane K-quad panels dst[jp][(p/4)*kQNR*4 + j*4 + p%4], writing the
// per-lane dequant scale and offset (lane j of panel jp at index
// jp*kQNR + j; padded lanes get scale 0). Three row-major passes (min/max,
// quantize to a staging row, scatter into quads) keep the strided column
// walks out of the hot loop so the first two passes auto-vectorise.
void pack_act_cols_q8(const float* b, int ldb, int kc, int nc, int kq,
                      std::uint8_t* dst, float* scale, float* off) {
  const int panels = (nc + kQNR - 1) / kQNR;
  const int ncp = panels * kQNR;  // padded lane count
  float* lo = pack_buffer(tl_q8_lo, static_cast<std::size_t>(2) * ncp);
  float* hi = lo + ncp;
  float* inv = pack_buffer(tl_q8_inv, static_cast<std::size_t>(ncp));
  for (int j = 0; j < ncp; ++j) lo[j] = 0.0f;   // 0 in range: padding-exact
  for (int j = 0; j < ncp; ++j) hi[j] = 0.0f;
  for (int p = 0; p < kc; ++p) {
    const float* row = b + static_cast<std::size_t>(p) * ldb;
    for (int j = 0; j < nc; ++j) lo[j] = std::min(lo[j], row[j]);
    for (int j = 0; j < nc; ++j) hi[j] = std::max(hi[j], row[j]);
  }
  for (int j = 0; j < ncp; ++j) {
    const float range = hi[j] - lo[j];
    scale[j] = range / 255.0f;
    off[j] = lo[j];
    inv[j] = range > 0.0f ? 255.0f / range : 0.0f;
  }
  // Stage quantized rows u8[kc][ncp], then scatter bytes into K-quads.
  std::uint8_t* tmp = pack_buffer(
      tl_q8_qtmp, static_cast<std::size_t>(kc) * ncp);
  for (int p = 0; p < kc; ++p) {
    const float* row = b + static_cast<std::size_t>(p) * ldb;
    std::uint8_t* trow = tmp + static_cast<std::size_t>(p) * ncp;
    // (x - lo) * inv >= 0, so +0.5f-truncate is round-half-up — branch-free
    // and vectorisable, identical on every host.
    for (int j = 0; j < nc; ++j) {
      trow[j] = static_cast<std::uint8_t>(
          static_cast<int>((row[j] - lo[j]) * inv[j] + 0.5f));
    }
    for (int j = nc; j < ncp; ++j) trow[j] = 0;
  }
  for (int jp = 0; jp < panels; ++jp) {
    std::uint8_t* d = dst + static_cast<std::size_t>(jp) * kq * kQNR * 4;
    for (int q = 0; q < kq; ++q) {
      std::uint8_t* dq = d + static_cast<std::size_t>(q) * kQNR * 4;
      for (int t = 0; t < 4; ++t) {
        const int p = q * 4 + t;
        if (p >= kc) {
          for (int j = 0; j < kQNR; ++j) dq[j * 4 + t] = 0;
          continue;
        }
        const std::uint8_t* trow =
            tmp + static_cast<std::size_t>(p) * ncp + jp * kQNR;
        for (int j = 0; j < kQNR; ++j) dq[j * 4 + t] = trow[j];
      }
    }
  }
}

// Activation rows (the linear A side, contiguous in K): kQMR-row K-quad
// panels dst[ip][(p/4)*kQMR*4 + r*4 + p%4] with per-row scale/offset.
void pack_act_rows_q8(const float* a, int lda, int mc, int kc, int kq,
                      std::uint8_t* dst, float* scale, float* off) {
  const int panels = (mc + kQMR - 1) / kQMR;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * kQMR * 4;
    for (int r = 0; r < kQMR; ++r) {
      const int rr = ip * kQMR + r;
      const int lane = ip * kQMR + r;
      if (rr >= mc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kQMR + r) * 4 + t] = 0;
        scale[lane] = 0.0f;
        off[lane] = 0.0f;
        continue;
      }
      const float* src = a + static_cast<std::size_t>(rr) * lda;
      float lo = 0.0f, hi = 0.0f;
      for (int p = 0; p < kc; ++p) {
        lo = std::min(lo, src[p]);
        hi = std::max(hi, src[p]);
      }
      const float range = hi - lo;
      const float inv = range > 0.0f ? 255.0f / range : 0.0f;
      scale[lane] = range / 255.0f;
      off[lane] = lo;
      for (int p = 0; p < kc; ++p) {
        d[(p >> 2) * kQMR * 4 + r * 4 + (p & 3)] = static_cast<std::uint8_t>(
            static_cast<int>((src[p] - lo) * inv + 0.5f));
      }
      for (int p = kc; p < kq * 4; ++p) {
        d[(p >> 2) * kQMR * 4 + r * 4 + (p & 3)] = 0;
      }
    }
  }
}

// Pre-quantized weight rows as the A side (conv: Wq[M,K]): kQMR-row K-quad
// panels plus the per-row block sum of wq (the dequant correction term).
void pack_wq_rows_a(const std::int8_t* wq, int ldw, int mc, int kc, int kq,
                    std::uint8_t* dst, std::int32_t* wqsum) {
  const int panels = (mc + kQMR - 1) / kQMR;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * kQMR * 4;
    for (int r = 0; r < kQMR; ++r) {
      const int rr = ip * kQMR + r;
      std::int32_t s = 0;
      if (rr >= mc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kQMR + r) * 4 + t] = 0;
      } else {
        const std::int8_t* src = wq + static_cast<std::size_t>(rr) * ldw;
        for (int p = 0; p < kc; ++p) {
          const std::int8_t v = src[p];
          s += v;
          d[(p >> 2) * kQMR * 4 + r * 4 + (p & 3)] =
              static_cast<std::uint8_t>(v);
        }
        for (int p = kc; p < kq * 4; ++p) {
          d[(p >> 2) * kQMR * 4 + r * 4 + (p & 3)] = 0;
        }
      }
      wqsum[ip * kQMR + r] = s;
    }
  }
}

// Pre-quantized weight rows as the B side (linear abt: Wq[N,K], logical
// column j = weight row j): kQNR-lane K-quad panels plus per-lane block sums.
void pack_wq_rows_b(const std::int8_t* wq, int ldw, int kc, int nc, int kq,
                    std::uint8_t* dst, std::int32_t* wqsum) {
  const int panels = (nc + kQNR - 1) / kQNR;
  for (int jp = 0; jp < panels; ++jp) {
    std::uint8_t* d = dst + static_cast<std::size_t>(jp) * kq * kQNR * 4;
    for (int j = 0; j < kQNR; ++j) {
      const int jj = jp * kQNR + j;
      std::int32_t s = 0;
      if (jj >= nc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kQNR + j) * 4 + t] = 0;
      } else {
        const std::int8_t* src = wq + static_cast<std::size_t>(jj) * ldw;
        for (int p = 0; p < kc; ++p) {
          const std::int8_t v = src[p];
          s += v;
          d[(p >> 2) * kQNR * 4 + j * 4 + (p & 3)] =
              static_cast<std::uint8_t>(v);
        }
        for (int p = kc; p < kq * 4; ++p) {
          d[(p >> 2) * kQNR * 4 + j * 4 + (p & 3)] = 0;
        }
      }
      wqsum[jp * kQNR + j] = s;
    }
  }
}

// 4x16 int8 micro-kernel over kq K-quads: acc[4][16] (int32) = sum of
// u8 x s8 byte products. kPanelUnsigned selects which operand holds the
// unsigned activation bytes: true = the kQNR-lane panel (conv), false = the
// kQMR-row broadcast side (linear). Both kernels produce exact integer sums,
// so they are interchangeable bit-for-bit.
#if defined(APM_Q8_VNNI)
template <bool kPanelUnsigned>
void micro_kernel_q8_4x16(const std::uint8_t* __restrict ap,
                          const std::uint8_t* __restrict bp, int kq,
                          std::int32_t* __restrict acc) {
  __m512i c0 = _mm512_setzero_si512();
  __m512i c1 = _mm512_setzero_si512();
  __m512i c2 = _mm512_setzero_si512();
  __m512i c3 = _mm512_setzero_si512();
  for (int q = 0; q < kq; ++q) {
    const __m512i bv =
        _mm512_loadu_si512(bp + static_cast<std::size_t>(q) * kQNR * 4);
    std::int32_t aq[kQMR];
    std::memcpy(aq, ap + static_cast<std::size_t>(q) * kQMR * 4, sizeof aq);
    const __m512i a0 = _mm512_set1_epi32(aq[0]);
    const __m512i a1 = _mm512_set1_epi32(aq[1]);
    const __m512i a2 = _mm512_set1_epi32(aq[2]);
    const __m512i a3 = _mm512_set1_epi32(aq[3]);
    if constexpr (kPanelUnsigned) {
      // vpdpbusd: first multiplicand unsigned, second signed.
      c0 = _mm512_dpbusd_epi32(c0, bv, a0);
      c1 = _mm512_dpbusd_epi32(c1, bv, a1);
      c2 = _mm512_dpbusd_epi32(c2, bv, a2);
      c3 = _mm512_dpbusd_epi32(c3, bv, a3);
    } else {
      c0 = _mm512_dpbusd_epi32(c0, a0, bv);
      c1 = _mm512_dpbusd_epi32(c1, a1, bv);
      c2 = _mm512_dpbusd_epi32(c2, a2, bv);
      c3 = _mm512_dpbusd_epi32(c3, a3, bv);
    }
  }
  _mm512_storeu_si512(acc + 0 * kQNR, c0);
  _mm512_storeu_si512(acc + 1 * kQNR, c1);
  _mm512_storeu_si512(acc + 2 * kQNR, c2);
  _mm512_storeu_si512(acc + 3 * kQNR, c3);
}
#else
template <bool kPanelUnsigned>
void micro_kernel_q8_4x16(const std::uint8_t* __restrict ap,
                          const std::uint8_t* __restrict bp, int kq,
                          std::int32_t* __restrict acc) {
  std::int32_t c[kQMR][kQNR] = {};
  for (int q = 0; q < kq; ++q) {
    const std::uint8_t* aq = ap + static_cast<std::size_t>(q) * kQMR * 4;
    const std::uint8_t* bq = bp + static_cast<std::size_t>(q) * kQNR * 4;
    for (int r = 0; r < kQMR; ++r) {
      for (int t = 0; t < 4; ++t) {
        const int av = kPanelUnsigned
                           ? static_cast<int>(
                                 static_cast<std::int8_t>(aq[r * 4 + t]))
                           : static_cast<int>(aq[r * 4 + t]);
        if (av == 0) continue;  // zero padding and sparse weights
        for (int j = 0; j < kQNR; ++j) {
          const int bv = kPanelUnsigned
                             ? static_cast<int>(bq[j * 4 + t])
                             : static_cast<int>(
                                   static_cast<std::int8_t>(bq[j * 4 + t]));
          c[r][j] += av * bv;
        }
      }
    }
  }
  std::memcpy(acc, c, sizeof c);
}
#endif

// Dequantizing store: C (+)= rs[i]*cs[j]*acc[i][j] + rc[i]*cc[j], the fused
// bias/ReLU epilogue on the last K block. The four per-lane arrays are
// tile-local views: conv maps (rs, rc) = (ws, ws*wqsum) on rows and
// (cs, cc) = (act scale, act min) on columns; linear swaps the roles.
void store_tile_q8(float* c, int ldc, const std::int32_t* acc, int i0,
                   int j0, int mr, int nr, const float* rs, const float* cs,
                   const float* rc, const float* cc, bool first, bool last,
                   const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < mr; ++i) {
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + j0;
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * kQNR;
    const float rsi = rs[i];
    const float rci = rc[i];
    if (first) {
      for (int j = 0; j < nr; ++j) {
        crow[j] = rsi * cs[j] * static_cast<float>(arow[j]) + rci * cc[j];
      }
    } else {
      for (int j = 0; j < nr; ++j) {
        crow[j] += rsi * cs[j] * static_cast<float>(arow[j]) + rci * cc[j];
      }
    }
    if (last) {
      if (row_bias != nullptr) {
        const float bi = row_bias[i0 + i];
        for (int j = 0; j < nr; ++j) crow[j] += bi;
      }
      if (col_bias != nullptr) {
        for (int j = 0; j < nr; ++j) crow[j] += col_bias[j0 + j];
      }
      if (relu) {
        for (int j = 0; j < nr; ++j) crow[j] = std::max(crow[j], 0.0f);
      }
    }
  }
}

// Int8 GEMM over all of C: the q8 counterpart of gemm_region. weights_a
// selects the conv shape (A = Wq[M,K], B = fp32 activations quantized on
// pack) vs the linear-abt shape (A = fp32 activation rows, B = Wq[N,K]).
void gemm_q8_region(bool weights_a, const float* act, const std::int8_t* wq,
                    const float* wscales, const float* bias, float* c, int m,
                    int n, int k, bool relu) {
  const float* row_bias = weights_a ? bias : nullptr;
  const float* col_bias = weights_a ? nullptr : bias;
  const int m_blocks = (m + kMC - 1) / kMC;
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int n_panels = (nc + kQNR - 1) / kQNR;
    for (int kc0 = 0; kc0 < k; kc0 += kKC) {
      const int kc = std::min(kKC, k - kc0);
      const int kq = (kc + 3) / 4;
      const bool first = kc0 == 0;
      const bool last = kc0 + kc == k;
      std::uint8_t* bpack = pack_buffer(
          tl_q8_bpack, static_cast<std::size_t>(n_panels) * kq * kQNR * 4);
      float* cs = pack_buffer(tl_q8_b_scale,
                              static_cast<std::size_t>(n_panels) * kQNR);
      float* cc = pack_buffer(tl_q8_b_corr,
                              static_cast<std::size_t>(n_panels) * kQNR);
      if (weights_a) {
        pack_act_cols_q8(act + static_cast<std::size_t>(kc0) * n + jc, n, kc,
                         nc, kq, bpack, cs, cc);
      } else {
        std::int32_t* wsum = pack_buffer(
            tl_q8_wqsum, static_cast<std::size_t>(n_panels) * kQNR);
        pack_wq_rows_b(wq + static_cast<std::size_t>(jc) * k + kc0, k, kc,
                       nc, kq, bpack, wsum);
        for (int j = 0; j < n_panels * kQNR; ++j) {
          const float s = j < nc ? wscales[jc + j] : 0.0f;
          cs[j] = s;
          cc[j] = s * static_cast<float>(wsum[j]);
        }
      }
      run_m_blocks(m_blocks, [&, bpack, cs, cc](int ib0, int ib1) {
        for (int ib = ib0; ib < ib1; ++ib) {
          const int i0 = ib * kMC;
          const int mc = std::min(kMC, m - i0);
          const int m_panels = (mc + kQMR - 1) / kQMR;
          std::uint8_t* apack = pack_buffer(
              tl_q8_apack,
              static_cast<std::size_t>(m_panels) * kq * kQMR * 4);
          float* rs = pack_buffer(tl_q8_a_scale,
                                  static_cast<std::size_t>(m_panels) * kQMR);
          float* rc = pack_buffer(tl_q8_a_corr,
                                  static_cast<std::size_t>(m_panels) * kQMR);
          if (weights_a) {
            std::int32_t* wsum = pack_buffer(
                tl_q8_wqsum, static_cast<std::size_t>(m_panels) * kQMR);
            pack_wq_rows_a(wq + static_cast<std::size_t>(i0) * k + kc0, k,
                           mc, kc, kq, apack, wsum);
            for (int r = 0; r < m_panels * kQMR; ++r) {
              const float s = r < mc ? wscales[i0 + r] : 0.0f;
              rs[r] = s;
              rc[r] = s * static_cast<float>(wsum[r]);
            }
          } else {
            pack_act_rows_q8(act + static_cast<std::size_t>(i0) * k + kc0, k,
                             mc, kc, kq, apack, rs, rc);
          }
          std::int32_t acc[kQMR * kQNR];
          for (int jp = 0; jp < n_panels; ++jp) {
            const std::uint8_t* bp =
                bpack + static_cast<std::size_t>(jp) * kq * kQNR * 4;
            const int nr = std::min(kQNR, nc - jp * kQNR);
            for (int ip = 0; ip < m_panels; ++ip) {
              const std::uint8_t* ap =
                  apack + static_cast<std::size_t>(ip) * kq * kQMR * 4;
              const int mr = std::min(kQMR, mc - ip * kQMR);
              if (weights_a) {
                micro_kernel_q8_4x16<true>(ap, bp, kq, acc);
              } else {
                micro_kernel_q8_4x16<false>(ap, bp, kq, acc);
              }
              store_tile_q8(c, n, acc, i0 + ip * kQMR, jc + jp * kQNR, mr, nr,
                            rs + ip * kQMR, cs + jp * kQNR, rc + ip * kQMR,
                            cc + jp * kQNR, first, last, row_bias, col_bias,
                            relu);
            }
          }
        }
      });
    }
  }
}

// Int8 driver: the degenerate shapes, then one region over all of C.
void gemm_q8_driver(bool weights_a, const float* act, const std::int8_t* wq,
                    const float* wscales, const float* bias, float* c, int m,
                    int n, int k, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    const float* row_bias = weights_a ? bias : nullptr;
    const float* col_bias = weights_a ? nullptr : bias;
    for (int i = 0; i < m; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * n;
      std::memset(crow, 0, static_cast<std::size_t>(n) * 4);
      if (row_bias) for (int j = 0; j < n; ++j) crow[j] += row_bias[i];
      if (col_bias) for (int j = 0; j < n; ++j) crow[j] += col_bias[j];
      if (relu) for (int j = 0; j < n; ++j) crow[j] = std::max(crow[j], 0.0f);
    }
    return;
  }
  gemm_q8_region(weights_a, act, wq, wscales, bias, c, m, n, k, relu);
}

}  // namespace

void gemm(const float* a, const float* b, float* c, int m, int n, int k,
          bool accumulate) {
  gemm_driver({a, static_cast<std::size_t>(k), 1}, b, false, nullptr, c, m,
              n, k, accumulate, false);
}

void gemm_bias_relu(const float* a, const float* b, const float* bias,
                    float* c, int m, int n, int k, bool relu) {
  gemm_driver({a, static_cast<std::size_t>(k), 1}, b, false, bias, c, m, n,
              k, false, relu);
}

void gemm_atb(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver({a, 1, static_cast<std::size_t>(m)}, b, false, nullptr, c, m,
              n, k, accumulate, false);
}

void gemm_abt(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver({a, static_cast<std::size_t>(k), 1}, b, true, nullptr, c, m, n,
              k, accumulate, false);
}

void gemm_abt_bias_relu(const float* a, const float* b, const float* bias,
                        float* c, int m, int n, int k, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    gemm_empty_k(c, m, n, false, nullptr, bias, relu);
    return;
  }
  // Computed as C^T[N, M] = B[N, K] * A^T, so the weights B are the
  // kernel's in-place operand and the activations A fill the panels; each
  // tile is transposed back into C's rows, the bias landing on columns.
  const std::size_t ldc = static_cast<std::size_t>(n);
  gemm_tiles(
      {b, static_cast<std::size_t>(k), 1}, n, m, k,
      [&](int j0, int nr, int k0, int kc, float* dst) {
        pack_b_t(a + static_cast<std::size_t>(j0) * k + k0, k, kc, nr, dst);
      },
      [&](const float* acc, int i0, int j0, int mr, int nr, bool first,
          bool last) {
        float acc_t[kNR * kMR];
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < nr; ++j) acc_t[j * kMR + i] = acc[i * kNR + j];
        store_tile(c + j0 * ldc + i0, ldc, acc_t, kMR, nr, mr, first, last,
                   false, nullptr, bias != nullptr ? bias + i0 : nullptr,
                   relu);
      });
}

void conv2d_bias_relu(const float* w, const float* x, const float* bias,
                      float* y, int batch, int channels, int height,
                      int width, int ksize, int out_channels, bool relu) {
  const int pad = ksize / 2;
  const int hp = height + 2 * pad;
  const int wp = width + 2 * pad;
  const std::size_t plane = static_cast<std::size_t>(hp) * wp;
  const std::size_t image = static_cast<std::size_t>(channels) * plane;
  const std::size_t padded = static_cast<std::size_t>(batch) * image;
  APM_CHECK_MSG(padded < (std::size_t{1} << 31),
                "conv input too large for 32-bit gather offsets");
  const int hw = height * width;
  const int n = batch * hw;
  const int k = channels * ksize * ksize;
  if (n == 0 || out_channels == 0) return;

  // Zero-padded copy of x (x itself for a 1x1 conv).
  const float* xp = x;
  if (pad > 0) {
    float* dst = pack_buffer(tl_xpad, padded);
    const std::size_t row_bytes = static_cast<std::size_t>(width) * 4;
    for (std::size_t plane_i = 0; plane_i < padded / plane; ++plane_i) {
      float* d = dst + plane_i * plane;
      const float* s = x + plane_i * hw;
      std::memset(d, 0, static_cast<std::size_t>(pad) * wp * 4);
      for (int iy = 0; iy < height; ++iy) {
        float* drow = d + static_cast<std::size_t>(iy + pad) * wp;
        std::memset(drow, 0, static_cast<std::size_t>(pad) * 4);
        std::memcpy(drow + pad, s + static_cast<std::size_t>(iy) * width,
                    row_bytes);
        std::memset(drow + pad + width, 0, static_cast<std::size_t>(pad) * 4);
      }
      std::memset(d + static_cast<std::size_t>(pad + height) * wp, 0,
                  static_cast<std::size_t>(pad) * wp * 4);
    }
    xp = dst;
  }
  // Column n = b*HW + oy*W + ox starts its receptive field at base[n]; row
  // r = (c, ky, kx) of the lowered input is the shift that adds.
  std::int32_t* base = pack_buffer(tl_col_base, static_cast<std::size_t>(n));
  for (int b = 0; b < batch; ++b)
    for (int oy = 0; oy < height; ++oy)
      for (int ox = 0; ox < width; ++ox)
        base[b * hw + oy * width + ox] =
            static_cast<std::int32_t>(b * image + oy * wp + ox);
  std::int32_t* shift = pack_buffer(tl_row_shift, static_cast<std::size_t>(k));
  for (int c = 0; c < channels; ++c)
    for (int ky = 0; ky < ksize; ++ky)
      for (int kx = 0; kx < ksize; ++kx)
        shift[(c * ksize + ky) * ksize + kx] =
            static_cast<std::int32_t>(c * plane + ky * wp + kx);

  // Output column n lands at y[b][i][s], n = b*HW + s: a tile's columns are
  // stored in runs that stay inside one sample.
  const std::size_t y_image = static_cast<std::size_t>(out_channels) * hw;
  gemm_tiles(
      {w, static_cast<std::size_t>(k), 1}, out_channels, n, k,
      [&](int j0, int nr, int k0, int kc, float* dst) {
        gather_b(xp, base + j0, nr, shift + k0, kc, dst);
      },
      [&](const float* acc, int i0, int j0, int mr, int nr, bool first,
          bool last) {
        for (int j = j0; j < j0 + nr;) {
          const int b = j / hw;
          const int s = j - b * hw;
          const int len = std::min(j0 + nr - j, hw - s);
          store_tile(y + b * y_image + static_cast<std::size_t>(i0) * hw + s,
                     static_cast<std::size_t>(hw), acc + (j - j0), kNR, mr,
                     len, first, last, false,
                     bias != nullptr ? bias + i0 : nullptr, nullptr, relu);
          j += len;
        }
      });
}

void quantize_rows_int8(const float* w, int rows, int k, std::int8_t* wq,
                        float* scales) {
  for (int r = 0; r < rows; ++r) {
    const float* src = w + static_cast<std::size_t>(r) * k;
    float maxabs = 0.0f;
    for (int p = 0; p < k; ++p) maxabs = std::max(maxabs, std::fabs(src[p]));
    const float s = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    const float inv = 1.0f / s;
    std::int8_t* dst = wq + static_cast<std::size_t>(r) * k;
    for (int p = 0; p < k; ++p) {
      const long q = std::lrintf(src[p] * inv);
      dst[p] = static_cast<std::int8_t>(std::min(127l, std::max(-127l, q)));
    }
    scales[r] = s;
  }
}

void gemm_q8_bias_relu(const std::int8_t* wq, const float* wscales,
                       const float* b, const float* bias, float* c, int m,
                       int n, int k, bool relu) {
  gemm_q8_driver(/*weights_a=*/true, b, wq, wscales, bias, c, m, n, k, relu);
}

void gemm_q8_abt_bias_relu(const float* a, const std::int8_t* wq,
                           const float* wscales, const float* bias, float* c,
                           int m, int n, int k, bool relu) {
  gemm_q8_driver(/*weights_a=*/false, a, wq, wscales, bias, c, m, n, k,
                 relu);
}

bool gemm_q8_simd_enabled() {
#if defined(APM_Q8_VNNI)
  return true;
#else
  return false;
#endif
}

void im2col(const float* x, int channels, int height, int width, int ksize,
            int pad, float* col) {
  im2col_batched(x, 1, channels, height, width, ksize, pad, col);
}

void im2col_batched(const float* x, int batch, int channels, int height,
                    int width, int ksize, int pad, float* col) {
  const int out_h = height;  // stride-1, same padding
  const int out_w = width;
  const std::size_t hw = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t bhw = static_cast<std::size_t>(batch) * hw;
  for (int c = 0; c < channels; ++c) {
    for (int ky = 0; ky < ksize; ++ky) {
      for (int kx = 0; kx < ksize; ++kx) {
        const std::size_t row = (static_cast<std::size_t>(c) * ksize + ky) *
                                    ksize + kx;
        float* dst_row = col + row * bhw;
        for (int b = 0; b < batch; ++b) {
          const float* xc =
              x + (static_cast<std::size_t>(b) * channels + c) * hw;
          float* dst = dst_row + static_cast<std::size_t>(b) * hw;
          for (int oy = 0; oy < out_h; ++oy) {
            const int iy = oy + ky - pad;
            float* drow = dst + static_cast<std::size_t>(oy) * out_w;
            if (iy < 0 || iy >= height) {
              std::memset(drow, 0, static_cast<std::size_t>(out_w) * 4);
              continue;
            }
            const float* xrow = xc + static_cast<std::size_t>(iy) * width;
            const int x0 = std::max(0, pad - kx);           // first ox in range
            const int x1 = std::min(out_w, width + pad - kx);  // one past last
            for (int ox = 0; ox < x0; ++ox) drow[ox] = 0.0f;
            if (x1 > x0) {
              std::memcpy(drow + x0, xrow + x0 + kx - pad,
                          static_cast<std::size_t>(x1 - x0) * 4);
            }
            for (int ox = std::max(x0, x1); ox < out_w; ++ox) drow[ox] = 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, int channels, int height, int width, int ksize,
            int pad, float* dx) {
  const int out_h = height;
  const int out_w = width;
  std::size_t idx = 0;
  for (int c = 0; c < channels; ++c) {
    float* xc = dx + static_cast<std::size_t>(c) * height * width;
    for (int ky = 0; ky < ksize; ++ky) {
      for (int kx = 0; kx < ksize; ++kx) {
        for (int oy = 0; oy < out_h; ++oy) {
          const int iy = oy + ky - pad;
          if (iy < 0 || iy >= height) {
            idx += static_cast<std::size_t>(out_w);
            continue;
          }
          float* xrow = xc + static_cast<std::size_t>(iy) * width;
          for (int ox = 0; ox < out_w; ++ox) {
            const int ix = ox + kx - pad;
            if (ix >= 0 && ix < width) xrow[ix] += col[idx];
            ++idx;
          }
        }
      }
    }
  }
}

void relu_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_backward(const float* x, const float* dy, float* dx, std::size_t n,
                   bool accumulate) {
  if (accumulate) {
    for (std::size_t i = 0; i < n; ++i)
      dx[i] += x[i] > 0.0f ? dy[i] : 0.0f;
  } else {
    for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
  }
}

void tanh_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void tanh_backward(const float* y, const float* dy, float* dx,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void softmax_rows(const float* x, float* y, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * cols;
    float* yr = y + static_cast<std::size_t>(r) * cols;
    float mx = xr[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) {
      yr[c] = std::exp(xr[c] - mx);
      denom += yr[c];
    }
    const float inv = 1.0f / denom;
    for (int c = 0; c < cols; ++c) yr[c] *= inv;
  }
}

void log_softmax_rows(const float* x, float* y, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* xr = x + static_cast<std::size_t>(r) * cols;
    float* yr = y + static_cast<std::size_t>(r) * cols;
    float mx = xr[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
    float denom = 0.0f;
    for (int c = 0; c < cols; ++c) denom += std::exp(xr[c] - mx);
    const float log_denom = std::log(denom) + mx;
    for (int c = 0; c < cols; ++c) yr[c] = xr[c] - log_denom;
  }
}

float sum(const float* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return static_cast<float>(acc);
}

float dot(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  APM_CHECK(a.numel() == b.numel());
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i)
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  return mx;
}

}  // namespace apm
