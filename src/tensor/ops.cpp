#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define APM_Q8_VNNI 1
#endif

#include "support/check.hpp"

namespace apm {
namespace {

// GEMM blocking. The micro-kernel computes an MR x NR tile of C with the
// accumulators held in registers across the whole K loop; the packing
// blocks are sized so one B panel (KC x NR floats = 16 KB) lives in L1 and
// one packed A block (MC x KC = 64 KB) in L2.
constexpr int kMR = 4;
constexpr int kNR = 16;
constexpr int kMC = 64;    // rows of C per packed-A block
constexpr int kKC = 256;   // K depth per packing pass
constexpr int kNC = 1024;  // columns of C per packed-B block

// Per-thread packing buffers (sized once, reused across calls).
template <typename T>
T* pack_buffer(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}
thread_local std::vector<float> tl_apack;
thread_local std::vector<float> tl_bpack;

// Runs a region's m-block loop nest, fn(0, m_blocks), behind a call the
// compiler cannot inline. The nest used to sit behind a std::function for
// intra-op sharding. Inlined into gemm_q8_region, it ran the int8 9x9 paper
// trunk 5-8% slower at batches 4 and 8 on one core; out of line it stays
// within noise of the std::function build, so both regions keep it there.
template <typename Fn>
[[gnu::noinline]] void run_m_blocks(int m_blocks, const Fn& fn) {
  fn(0, m_blocks);
}

// Packs an mc x kc block of A into kMR-row panels: panel ip holds rows
// [ip*MR, ip*MR+MR) transposed to ap[p*MR + r], zero-padded past mc so the
// micro-kernel never branches on the row remainder.
void pack_a(const float* a, int lda, int mc, int kc, float* dst) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int ip = 0; ip < panels; ++ip) {
    const int rows = std::min(kMR, mc - ip * kMR);
    const float* src = a + static_cast<std::size_t>(ip) * kMR * lda;
    float* d = dst + static_cast<std::size_t>(ip) * kc * kMR;
    for (int p = 0; p < kc; ++p) {
      for (int r = 0; r < rows; ++r)
        d[p * kMR + r] = src[static_cast<std::size_t>(r) * lda + p];
      for (int r = rows; r < kMR; ++r) d[p * kMR + r] = 0.0f;
    }
  }
}

// Same panels from an A stored transposed ([K, M] row-major): rows of the
// logical A block are contiguous in the source, so this is a strided copy.
void pack_a_t(const float* at, int ldat, int mc, int kc, float* dst) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int ip = 0; ip < panels; ++ip) {
    const int rows = std::min(kMR, mc - ip * kMR);
    const float* src = at + static_cast<std::size_t>(ip) * kMR;
    float* d = dst + static_cast<std::size_t>(ip) * kc * kMR;
    for (int p = 0; p < kc; ++p) {
      const float* srow = src + static_cast<std::size_t>(p) * ldat;
      for (int r = 0; r < rows; ++r) d[p * kMR + r] = srow[r];
      for (int r = rows; r < kMR; ++r) d[p * kMR + r] = 0.0f;
    }
  }
}

// Packs a kc x nc block of B into kNR-column panels bp[p*NR + j],
// zero-padded past nc.
void pack_b(const float* b, int ldb, int kc, int nc, float* dst) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    const int cols = std::min(kNR, nc - jp * kNR);
    const float* src = b + static_cast<std::size_t>(jp) * kNR;
    float* d = dst + static_cast<std::size_t>(jp) * kc * kNR;
    for (int p = 0; p < kc; ++p) {
      const float* srow = src + static_cast<std::size_t>(p) * ldb;
      for (int j = 0; j < cols; ++j) d[p * kNR + j] = srow[j];
      for (int j = cols; j < kNR; ++j) d[p * kNR + j] = 0.0f;
    }
  }
}

// Same panels from a B stored transposed ([N, K] row-major): column j of
// the logical block is source row j.
void pack_b_t(const float* bt, int ldbt, int kc, int nc, float* dst) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    const int cols = std::min(kNR, nc - jp * kNR);
    const float* src = bt + static_cast<std::size_t>(jp) * kNR * ldbt;
    float* d = dst + static_cast<std::size_t>(jp) * kc * kNR;
    for (int j = 0; j < cols; ++j) {
      const float* srow = src + static_cast<std::size_t>(j) * ldbt;
      for (int p = 0; p < kc; ++p) d[p * kNR + j] = srow[p];
    }
    for (int j = cols; j < kNR; ++j)
      for (int p = 0; p < kc; ++p) d[p * kNR + j] = 0.0f;
  }
}

// 4x16 register-blocked micro-kernel: acc[4][16] += Ap * Bp over kc, the
// 8 accumulators (4 rows x 2 vectors) held in registers across the whole K
// loop. GCC's auto-vectoriser rejects this shape as "not profitable", so
// the vectors are spelled out with the GCC/Clang vector extension — 8-lane
// ops lower to AVX/NEON as available. There is no zero-skip branch (it
// defeats unrolling and costs more than it saves on dense panels).
#if defined(__GNUC__) || defined(__clang__)
using v8f = float __attribute__((vector_size(32), aligned(4)));

void micro_kernel_4x16(const float* __restrict ap, const float* __restrict bp,
                       int kc, float* __restrict acc) {
  v8f c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (int p = 0; p < kc; ++p) {
    // memcpy loads keep the panel reads unaligned-safe and avoid passing
    // vector types across function boundaries (-Wpsabi on non-AVX builds).
    v8f b0, b1;
    std::memcpy(&b0, bp + static_cast<std::size_t>(p) * kNR, sizeof(b0));
    std::memcpy(&b1, bp + static_cast<std::size_t>(p) * kNR + 8, sizeof(b1));
    const float a0 = ap[p * kMR + 0];
    const float a1 = ap[p * kMR + 1];
    const float a2 = ap[p * kMR + 2];
    const float a3 = ap[p * kMR + 3];
    c00 += a0 * b0;
    c01 += a0 * b1;
    c10 += a1 * b0;
    c11 += a1 * b1;
    c20 += a2 * b0;
    c21 += a2 * b1;
    c30 += a3 * b0;
    c31 += a3 * b1;
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
void micro_kernel_4x16(const float* __restrict ap, const float* __restrict bp,
                       int kc, float* __restrict acc) {
  float c0[kNR] = {0.0f}, c1[kNR] = {0.0f};
  float c2[kNR] = {0.0f}, c3[kNR] = {0.0f};
  for (int p = 0; p < kc; ++p) {
    const float* __restrict bv = bp + static_cast<std::size_t>(p) * kNR;
    const float a0 = ap[p * kMR + 0];
    const float a1 = ap[p * kMR + 1];
    const float a2 = ap[p * kMR + 2];
    const float a3 = ap[p * kMR + 3];
    for (int j = 0; j < kNR; ++j) c0[j] += a0 * bv[j];
    for (int j = 0; j < kNR; ++j) c1[j] += a1 * bv[j];
    for (int j = 0; j < kNR; ++j) c2[j] += a2 * bv[j];
    for (int j = 0; j < kNR; ++j) c3[j] += a3 * bv[j];
  }
  std::memcpy(acc + 0 * kNR, c0, sizeof(c0));
  std::memcpy(acc + 1 * kNR, c1, sizeof(c1));
  std::memcpy(acc + 2 * kNR, c2, sizeof(c2));
  std::memcpy(acc + 3 * kNR, c3, sizeof(c3));
}
#endif

// Writes one micro-tile into C. `first` selects store vs accumulate for the
// leading K block; `last` applies the fused bias/ReLU epilogue once the full
// K extent has been reduced.
void store_tile(float* c, int ldc, const float* acc, int i0, int j0, int mr,
                int nr, bool first, bool last, bool accumulate,
                const float* row_bias, const float* col_bias, bool relu) {
  for (int i = 0; i < mr; ++i) {
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + j0;
    const float* arow = acc + static_cast<std::size_t>(i) * kNR;
    if (first && !accumulate) {
      for (int j = 0; j < nr; ++j) crow[j] = arow[j];
    } else {
      for (int j = 0; j < nr; ++j) crow[j] += arow[j];
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

// GEMM over all of C: packs B/A into the calling thread's buffers and runs
// the kc / m-block / micro-kernel loops.
void gemm_region(const float* a, bool a_trans, const float* b, bool b_trans,
                 const float* row_bias, const float* col_bias, float* c,
                 int m, int n, int k, bool accumulate, bool relu) {
  const int m_blocks = (m + kMC - 1) / kMC;
  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = std::min(kNC, n - jc);
    const int n_panels = (nc + kNR - 1) / kNR;
    for (int kc0 = 0; kc0 < k; kc0 += kKC) {
      const int kc = std::min(kKC, k - kc0);
      const bool first = kc0 == 0;
      const bool last = kc0 + kc == k;
      float* bpack = pack_buffer(
          tl_bpack, static_cast<std::size_t>(n_panels) * kc * kNR);
      if (b_trans) {
        pack_b_t(b + static_cast<std::size_t>(jc) * k + kc0, k, kc, nc,
                 bpack);
      } else {
        pack_b(b + static_cast<std::size_t>(kc0) * n + jc, n, kc, nc, bpack);
      }
      run_m_blocks(m_blocks, [&, bpack](int ib0, int ib1) {
        for (int ib = ib0; ib < ib1; ++ib) {
          const int i0 = ib * kMC;
          const int mc = std::min(kMC, m - i0);
          const int m_panels = (mc + kMR - 1) / kMR;
          float* apack = pack_buffer(
              tl_apack, static_cast<std::size_t>(m_panels) * kc * kMR);
          if (a_trans) {
            pack_a_t(a + static_cast<std::size_t>(kc0) * m + i0, m, mc, kc,
                     apack);
          } else {
            pack_a(a + static_cast<std::size_t>(i0) * k + kc0, k, mc, kc,
                   apack);
          }
          float acc[kMR * kNR];
          for (int jp = 0; jp < n_panels; ++jp) {
            const float* bp = bpack + static_cast<std::size_t>(jp) * kc * kNR;
            const int nr = std::min(kNR, nc - jp * kNR);
            for (int ip = 0; ip < m_panels; ++ip) {
              const float* ap =
                  apack + static_cast<std::size_t>(ip) * kc * kMR;
              const int mr = std::min(kMR, mc - ip * kMR);
              micro_kernel_4x16(ap, bp, kc, acc);
              store_tile(c, n, acc, i0 + ip * kMR, jc + jp * kNR, mr, nr,
                         first, last, accumulate, row_bias, col_bias, relu);
            }
          }
        }
      });
    }
  }
}

// Shared GEMM driver. a_trans: A passed as [K, M]; b_trans: B passed as
// [N, K]. Bias epilogues require accumulate == false.
void gemm_driver(const float* a, bool a_trans, const float* b, bool b_trans,
                 const float* row_bias, const float* col_bias, float* c,
                 int m, int n, int k, bool accumulate, bool relu) {
  APM_DCHECK(m >= 0 && n >= 0 && k >= 0);
  APM_DCHECK(!(accumulate && (row_bias || col_bias || relu)));
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate reduction: C is the epilogue of an empty sum.
    for (int i = 0; i < m; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * n;
      if (!accumulate) std::memset(crow, 0, static_cast<std::size_t>(n) * 4);
      if (row_bias) for (int j = 0; j < n; ++j) crow[j] += row_bias[i];
      if (col_bias) for (int j = 0; j < n; ++j) crow[j] += col_bias[j];
      if (relu) for (int j = 0; j < n; ++j) crow[j] = std::max(crow[j], 0.0f);
    }
    return;
  }

  gemm_region(a, a_trans, b, b_trans, row_bias, col_bias, c, m, n, k,
              accumulate, relu);
}

// --- int8 quantized GEMM ----------------------------------------------------
// Same blocking skeleton as the fp32 driver (kMC/kKC/kNC, kMR x kNR tiles),
// but the panels hold 8-bit integers grouped in K-quads of 4 — the shape
// vpdpbusd consumes: one 64-byte panel vector is 16 lanes x 4 consecutive
// K steps. The weight side is pre-quantized signed int8 with a per-row
// (output-channel) scale ws; the activation side is quantized during the
// pack with an asymmetric per-(K-block, lane) min/scale,
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
// into kNR-lane K-quad panels dst[jp][(p/4)*kNR*4 + j*4 + p%4], writing the
// per-lane dequant scale and offset (lane j of panel jp at index
// jp*kNR + j; padded lanes get scale 0). Three row-major passes (min/max,
// quantize to a staging row, scatter into quads) keep the strided column
// walks out of the hot loop so the first two passes auto-vectorise.
void pack_act_cols_q8(const float* b, int ldb, int kc, int nc, int kq,
                      std::uint8_t* dst, float* scale, float* off) {
  const int panels = (nc + kNR - 1) / kNR;
  const int ncp = panels * kNR;  // padded lane count
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
    std::uint8_t* d = dst + static_cast<std::size_t>(jp) * kq * kNR * 4;
    for (int q = 0; q < kq; ++q) {
      std::uint8_t* dq = d + static_cast<std::size_t>(q) * kNR * 4;
      for (int t = 0; t < 4; ++t) {
        const int p = q * 4 + t;
        if (p >= kc) {
          for (int j = 0; j < kNR; ++j) dq[j * 4 + t] = 0;
          continue;
        }
        const std::uint8_t* trow =
            tmp + static_cast<std::size_t>(p) * ncp + jp * kNR;
        for (int j = 0; j < kNR; ++j) dq[j * 4 + t] = trow[j];
      }
    }
  }
}

// Activation rows (the linear A side, contiguous in K): kMR-row K-quad
// panels dst[ip][(p/4)*kMR*4 + r*4 + p%4] with per-row scale/offset.
void pack_act_rows_q8(const float* a, int lda, int mc, int kc, int kq,
                      std::uint8_t* dst, float* scale, float* off) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * kMR * 4;
    for (int r = 0; r < kMR; ++r) {
      const int rr = ip * kMR + r;
      const int lane = ip * kMR + r;
      if (rr >= mc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kMR + r) * 4 + t] = 0;
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
        d[(p >> 2) * kMR * 4 + r * 4 + (p & 3)] = static_cast<std::uint8_t>(
            static_cast<int>((src[p] - lo) * inv + 0.5f));
      }
      for (int p = kc; p < kq * 4; ++p) {
        d[(p >> 2) * kMR * 4 + r * 4 + (p & 3)] = 0;
      }
    }
  }
}

// Pre-quantized weight rows as the A side (conv: Wq[M,K]): kMR-row K-quad
// panels plus the per-row block sum of wq (the dequant correction term).
void pack_wq_rows_a(const std::int8_t* wq, int ldw, int mc, int kc, int kq,
                    std::uint8_t* dst, std::int32_t* wqsum) {
  const int panels = (mc + kMR - 1) / kMR;
  for (int ip = 0; ip < panels; ++ip) {
    std::uint8_t* d = dst + static_cast<std::size_t>(ip) * kq * kMR * 4;
    for (int r = 0; r < kMR; ++r) {
      const int rr = ip * kMR + r;
      std::int32_t s = 0;
      if (rr >= mc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kMR + r) * 4 + t] = 0;
      } else {
        const std::int8_t* src = wq + static_cast<std::size_t>(rr) * ldw;
        for (int p = 0; p < kc; ++p) {
          const std::int8_t v = src[p];
          s += v;
          d[(p >> 2) * kMR * 4 + r * 4 + (p & 3)] =
              static_cast<std::uint8_t>(v);
        }
        for (int p = kc; p < kq * 4; ++p) {
          d[(p >> 2) * kMR * 4 + r * 4 + (p & 3)] = 0;
        }
      }
      wqsum[ip * kMR + r] = s;
    }
  }
}

// Pre-quantized weight rows as the B side (linear abt: Wq[N,K], logical
// column j = weight row j): kNR-lane K-quad panels plus per-lane block sums.
void pack_wq_rows_b(const std::int8_t* wq, int ldw, int kc, int nc, int kq,
                    std::uint8_t* dst, std::int32_t* wqsum) {
  const int panels = (nc + kNR - 1) / kNR;
  for (int jp = 0; jp < panels; ++jp) {
    std::uint8_t* d = dst + static_cast<std::size_t>(jp) * kq * kNR * 4;
    for (int j = 0; j < kNR; ++j) {
      const int jj = jp * kNR + j;
      std::int32_t s = 0;
      if (jj >= nc) {
        for (int q = 0; q < kq; ++q)
          for (int t = 0; t < 4; ++t) d[(q * kNR + j) * 4 + t] = 0;
      } else {
        const std::int8_t* src = wq + static_cast<std::size_t>(jj) * ldw;
        for (int p = 0; p < kc; ++p) {
          const std::int8_t v = src[p];
          s += v;
          d[(p >> 2) * kNR * 4 + j * 4 + (p & 3)] =
              static_cast<std::uint8_t>(v);
        }
        for (int p = kc; p < kq * 4; ++p) {
          d[(p >> 2) * kNR * 4 + j * 4 + (p & 3)] = 0;
        }
      }
      wqsum[jp * kNR + j] = s;
    }
  }
}

// 4x16 int8 micro-kernel over kq K-quads: acc[4][16] (int32) = sum of
// u8 x s8 byte products. kPanelUnsigned selects which operand holds the
// unsigned activation bytes: true = the kNR-lane panel (conv), false = the
// kMR-row broadcast side (linear). Both kernels produce exact integer sums,
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
        _mm512_loadu_si512(bp + static_cast<std::size_t>(q) * kNR * 4);
    std::int32_t aq[kMR];
    std::memcpy(aq, ap + static_cast<std::size_t>(q) * kMR * 4, sizeof aq);
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
  _mm512_storeu_si512(acc + 0 * kNR, c0);
  _mm512_storeu_si512(acc + 1 * kNR, c1);
  _mm512_storeu_si512(acc + 2 * kNR, c2);
  _mm512_storeu_si512(acc + 3 * kNR, c3);
}
#else
template <bool kPanelUnsigned>
void micro_kernel_q8_4x16(const std::uint8_t* __restrict ap,
                          const std::uint8_t* __restrict bp, int kq,
                          std::int32_t* __restrict acc) {
  std::int32_t c[kMR][kNR] = {};
  for (int q = 0; q < kq; ++q) {
    const std::uint8_t* aq = ap + static_cast<std::size_t>(q) * kMR * 4;
    const std::uint8_t* bq = bp + static_cast<std::size_t>(q) * kNR * 4;
    for (int r = 0; r < kMR; ++r) {
      for (int t = 0; t < 4; ++t) {
        const int av = kPanelUnsigned
                           ? static_cast<int>(
                                 static_cast<std::int8_t>(aq[r * 4 + t]))
                           : static_cast<int>(aq[r * 4 + t]);
        if (av == 0) continue;  // zero padding and sparse weights
        for (int j = 0; j < kNR; ++j) {
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
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * kNR;
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
    const int n_panels = (nc + kNR - 1) / kNR;
    for (int kc0 = 0; kc0 < k; kc0 += kKC) {
      const int kc = std::min(kKC, k - kc0);
      const int kq = (kc + 3) / 4;
      const bool first = kc0 == 0;
      const bool last = kc0 + kc == k;
      std::uint8_t* bpack = pack_buffer(
          tl_q8_bpack, static_cast<std::size_t>(n_panels) * kq * kNR * 4);
      float* cs = pack_buffer(tl_q8_b_scale,
                              static_cast<std::size_t>(n_panels) * kNR);
      float* cc = pack_buffer(tl_q8_b_corr,
                              static_cast<std::size_t>(n_panels) * kNR);
      if (weights_a) {
        pack_act_cols_q8(act + static_cast<std::size_t>(kc0) * n + jc, n, kc,
                         nc, kq, bpack, cs, cc);
      } else {
        std::int32_t* wsum = pack_buffer(
            tl_q8_wqsum, static_cast<std::size_t>(n_panels) * kNR);
        pack_wq_rows_b(wq + static_cast<std::size_t>(jc) * k + kc0, k, kc,
                       nc, kq, bpack, wsum);
        for (int j = 0; j < n_panels * kNR; ++j) {
          const float s = j < nc ? wscales[jc + j] : 0.0f;
          cs[j] = s;
          cc[j] = s * static_cast<float>(wsum[j]);
        }
      }
      run_m_blocks(m_blocks, [&, bpack, cs, cc](int ib0, int ib1) {
        for (int ib = ib0; ib < ib1; ++ib) {
          const int i0 = ib * kMC;
          const int mc = std::min(kMC, m - i0);
          const int m_panels = (mc + kMR - 1) / kMR;
          std::uint8_t* apack = pack_buffer(
              tl_q8_apack,
              static_cast<std::size_t>(m_panels) * kq * kMR * 4);
          float* rs = pack_buffer(tl_q8_a_scale,
                                  static_cast<std::size_t>(m_panels) * kMR);
          float* rc = pack_buffer(tl_q8_a_corr,
                                  static_cast<std::size_t>(m_panels) * kMR);
          if (weights_a) {
            std::int32_t* wsum = pack_buffer(
                tl_q8_wqsum, static_cast<std::size_t>(m_panels) * kMR);
            pack_wq_rows_a(wq + static_cast<std::size_t>(i0) * k + kc0, k,
                           mc, kc, kq, apack, wsum);
            for (int r = 0; r < m_panels * kMR; ++r) {
              const float s = r < mc ? wscales[i0 + r] : 0.0f;
              rs[r] = s;
              rc[r] = s * static_cast<float>(wsum[r]);
            }
          } else {
            pack_act_rows_q8(act + static_cast<std::size_t>(i0) * k + kc0, k,
                             mc, kc, kq, apack, rs, rc);
          }
          std::int32_t acc[kMR * kNR];
          for (int jp = 0; jp < n_panels; ++jp) {
            const std::uint8_t* bp =
                bpack + static_cast<std::size_t>(jp) * kq * kNR * 4;
            const int nr = std::min(kNR, nc - jp * kNR);
            for (int ip = 0; ip < m_panels; ++ip) {
              const std::uint8_t* ap =
                  apack + static_cast<std::size_t>(ip) * kq * kMR * 4;
              const int mr = std::min(kMR, mc - ip * kMR);
              if (weights_a) {
                micro_kernel_q8_4x16<true>(ap, bp, kq, acc);
              } else {
                micro_kernel_q8_4x16<false>(ap, bp, kq, acc);
              }
              store_tile_q8(c, n, acc, i0 + ip * kMR, jc + jp * kNR, mr, nr,
                            rs + ip * kMR, cs + jp * kNR, rc + ip * kMR,
                            cc + jp * kNR, first, last, row_bias, col_bias,
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
  gemm_driver(a, false, b, false, nullptr, nullptr, c, m, n, k, accumulate,
              false);
}

void gemm_bias_relu(const float* a, const float* b, const float* bias,
                    float* c, int m, int n, int k, bool relu) {
  gemm_driver(a, false, b, false, bias, nullptr, c, m, n, k, false, relu);
}

void gemm_atb(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver(a, true, b, false, nullptr, nullptr, c, m, n, k, accumulate,
              false);
}

void gemm_abt(const float* a, const float* b, float* c, int m, int n, int k,
              bool accumulate) {
  gemm_driver(a, false, b, true, nullptr, nullptr, c, m, n, k, accumulate,
              false);
}

void gemm_abt_bias_relu(const float* a, const float* b, const float* bias,
                        float* c, int m, int n, int k, bool relu) {
  gemm_driver(a, false, b, true, nullptr, bias, c, m, n, k, false, relu);
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
