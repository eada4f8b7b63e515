#pragma once
// Profile pass: per-layer self times of one lane's net, on the batch-size
// mix that lane actually dispatched during the traced run.
//
// For every batch size b the run saw (fill histogram count c_b), the pass
// times, on real positions and with public calls only:
//  * the whole forward (predict),
//  * each layer of the same sequence predict runs — conv1..3, conv_p, fc_p,
//    conv_v, fc_v1, fc_v2 — called one after another on the previous
//    layer's real output, so each meets the cache state it has inside a
//    forward, and
//  * for each conv, its two halves: im2col_batched over the whole batch and
//    the fused GEMM (gemm_bias_relu, or gemm_q8_bias_relu on int8 layers)
//    that consumes it.
// Each timing is the median over repetitions of that sequence.
// Per-evaluation figures are weighted by the mix: Σ_b c_b·t_b / Σ_b c_b·b.
// layer_closure compares the layer sum with the whole forward; the
// difference is the softmax and the output copy.
//
// The im2col/GEMM halves are timed unchunked; the library lowers batches
// in cache-budget chunks, which only differs once a conv's col buffer
// exceeds the budget (batch >= 18 on the 9x9 paper trunk).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/policy_value_net.hpp"
#include "nn/quantize.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"

namespace e2e {

struct LayerProfile {
  std::string name;
  bool conv = false;
  double flops_per_eval = 0.0;  // 2·MACs, from the layer shapes
  double us = 0.0;              // per evaluation, mix-weighted
  double im2col_us = 0.0;       // convs only
  double gemm_us = 0.0;         // convs only
  double gflops() const { return us > 0.0 ? flops_per_eval / us * 1e-3 : 0.0; }
};

struct NetProfile {
  std::vector<LayerProfile> layers;
  double predict_us = 0.0;  // whole forward per evaluation, mix-weighted
  double layer_sum_us() const {
    double s = 0.0;
    for (const LayerProfile& l : layers) s += l.us;
    return s;
  }
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// One layer of the forward sequence: reads `in`, writes `out`.
struct Op {
  std::string name;
  bool conv = false;
  int in_idx = 0;   // index into the tensor chain (0 = network input)
  int out_idx = 0;
  bool flatten = false;  // reshape the output to [B, C·H·W] (FC input)
  double macs_per_sample = 0.0;
  std::function<void(const apm::Tensor&, apm::Tensor&)> forward;
  // Convs: the GEMM half on an im2col'd input (col [kk, B·HW] -> out).
  int cin = 0, cout = 0, k = 1;
  std::function<void(const float* col, float* out, int cols)> gemm;
};

}  // namespace detail

// `positions` holds whole encoded positions (input_size floats each);
// batches cycle through them. `fill_histogram[b]` counts dispatched batches
// of size b. Exactly one of `net` / `qnet` is set.
inline NetProfile profile_net(const apm::PolicyValueNet* net,
                              const apm::QuantizedPolicyValueNet* qnet,
                              const std::vector<float>& positions,
                              const std::vector<std::size_t>& fill_histogram) {
  using detail::Op;
  const apm::NetConfig& cfg = net != nullptr ? net->config() : qnet->config();
  const int hw = cfg.height * cfg.width;
  const std::size_t in_size = static_cast<std::size_t>(cfg.in_channels) * hw;
  const std::size_t n_pos = positions.size() / in_size;

  apm::ConvWorkspace ws;
  // Tensor chain: 0 input, 1 t1, 2 t2, 3 t3, 4 p0, 5 logits, 6 v0, 7 v1, 8 v2.
  std::vector<apm::Tensor> t(9);

  std::vector<Op> ops;
  const auto conv_op = [&](std::string name, int in_idx, int out_idx,
                           bool flatten, const apm::Conv2d* f,
                           const apm::QuantizedConv2d* q) {
    Op op;
    op.name = std::move(name);
    op.conv = true;
    op.in_idx = in_idx;
    op.out_idx = out_idx;
    op.flatten = flatten;
    op.cin = f != nullptr ? f->in_channels() : q->in_channels();
    op.cout = f != nullptr ? f->out_channels() : q->out_channels();
    op.k = f != nullptr ? f->ksize() : q->ksize();
    const int kk = op.cin * op.k * op.k;
    op.macs_per_sample = static_cast<double>(op.cout) * kk * hw;
    const int cout = op.cout;
    if (f != nullptr) {
      op.forward = [f, &ws](const apm::Tensor& x, apm::Tensor& y) {
        f->forward(x, y, ws, nullptr, /*fuse_relu=*/true);
      };
      op.gemm = [f, cout, kk](const float* col, float* out, int cols) {
        apm::gemm_bias_relu(f->weight().value.data(), col,
                            f->bias().value.data(), out, cout, cols, kk,
                            true);
      };
    } else {
      op.forward = [q, &ws](const apm::Tensor& x, apm::Tensor& y) {
        q->forward(x, y, ws, /*fuse_relu=*/true);
      };
      op.gemm = [q, cout, kk](const float* col, float* out, int cols) {
        apm::gemm_q8_bias_relu(nullptr, q->wq().data(), q->wscale().data(),
                               col, q->bias().data(), out, cout, cols, kk,
                               true);
      };
    }
    ops.push_back(std::move(op));
  };
  const auto fc_op = [&](std::string name, int in_idx, int out_idx, bool relu,
                         const apm::Linear* f, const apm::QuantizedLinear* q) {
    Op op;
    op.name = std::move(name);
    op.in_idx = in_idx;
    op.out_idx = out_idx;
    const int in = f != nullptr ? f->in_features() : q->in_features();
    const int out = f != nullptr ? f->out_features() : q->out_features();
    op.macs_per_sample = static_cast<double>(in) * out;
    if (f != nullptr) {
      op.forward = [f, relu](const apm::Tensor& x, apm::Tensor& y) {
        f->forward(x, y, relu);
      };
    } else {
      op.forward = [q, relu](const apm::Tensor& x, apm::Tensor& y) {
        q->forward(x, y, relu);
      };
    }
    ops.push_back(std::move(op));
  };

  if (net != nullptr) {
    conv_op("conv1", 0, 1, false, &net->conv1(), nullptr);
    conv_op("conv2", 1, 2, false, &net->conv2(), nullptr);
    conv_op("conv3", 2, 3, false, &net->conv3(), nullptr);
    conv_op("conv_p", 3, 4, true, &net->conv_p(), nullptr);
    fc_op("fc_p", 4, 5, false, &net->fc_p(), nullptr);
    conv_op("conv_v", 3, 6, true, &net->conv_v(), nullptr);
    fc_op("fc_v1", 6, 7, true, &net->fc_v1(), nullptr);
    fc_op("fc_v2", 7, 8, false, &net->fc_v2(), nullptr);
  } else {
    const auto opt = [](const auto& o) { return o ? &*o : nullptr; };
    conv_op("conv1", 0, 1, false, nullptr, &qnet->conv1());
    conv_op("conv2", 1, 2, false, nullptr, &qnet->conv2());
    conv_op("conv3", 2, 3, false, nullptr, &qnet->conv3());
    conv_op("conv_p", 3, 4, true, opt(qnet->fconv_p()), opt(qnet->qconv_p()));
    fc_op("fc_p", 4, 5, false, opt(qnet->ffc_p()), opt(qnet->qfc_p()));
    conv_op("conv_v", 3, 6, true, opt(qnet->fconv_v()), opt(qnet->qconv_v()));
    fc_op("fc_v1", 6, 7, true, opt(qnet->ffc_v1()), opt(qnet->qfc_v1()));
    fc_op("fc_v2", 7, 8, false, &qnet->fc_v2(), nullptr);
  }

  NetProfile prof;
  for (const Op& op : ops) {
    LayerProfile lp;
    lp.name = op.name;
    lp.conv = op.conv;
    lp.flops_per_eval = 2.0 * op.macs_per_sample;
    prof.layers.push_back(lp);
  }

  // Repetitions per batch size: at least kMinReps, and enough that the
  // forward passes add up to kMinTotalUs, so the microsecond-scale layers
  // of the tiny nets are not lost in timer resolution.
  constexpr int kMinReps = 15;
  constexpr int kMaxReps = 4000;
  constexpr double kMinTotalUs = 30000.0;
  using detail::Clock;
  using detail::us_since;

  double weighted_evals = 0.0;
  apm::Activations acts;
  apm::Tensor policy, value, col;
  std::vector<float> gemm_out;
  for (std::size_t b = 1; b < fill_histogram.size(); ++b) {
    const double count = static_cast<double>(fill_histogram[b]);
    if (count == 0.0) continue;
    const int batch = static_cast<int>(b);
    const int cols = batch * hw;
    weighted_evals += count * batch;

    apm::Tensor& x = t[0];
    x.resize({batch, cfg.in_channels, cfg.height, cfg.width});
    for (int i = 0; i < batch; ++i) {
      std::copy_n(positions.data() + (i % n_pos) * in_size, in_size,
                  x.data() + static_cast<std::size_t>(i) * in_size);
    }
    const auto predict = [&] {
      if (net != nullptr) {
        net->predict(x, acts, policy, value);
      } else {
        qnet->predict(x, acts, policy, value);
      }
    };

    // One repetition: the whole forward, then the same layers one by one
    // (each fed its predecessor's output, so it meets the cache state it
    // has inside a forward), then each conv's im2col and GEMM halves.
    std::vector<double> t_predict;
    std::vector<std::vector<double>> t_layer(ops.size()), t_im2col(ops.size()),
        t_gemm(ops.size());
    double total = 0.0;
    for (int rep = -1; rep < kMaxReps; ++rep) {  // rep -1 warms up
      auto t0 = Clock::now();
      predict();
      const double whole = us_since(t0);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        apm::Tensor& y = t[static_cast<std::size_t>(op.out_idx)];
        t0 = Clock::now();
        op.forward(t[static_cast<std::size_t>(op.in_idx)], y);
        if (op.flatten) y.reshape({batch, static_cast<int>(y.numel()) / batch});
        if (rep >= 0) t_layer[i].push_back(us_since(t0));
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (!op.conv) continue;
        const int kk = op.cin * op.k * op.k;
        col.resize({kk, cols});
        gemm_out.resize(static_cast<std::size_t>(op.cout) * cols);
        t0 = Clock::now();
        apm::im2col_batched(t[static_cast<std::size_t>(op.in_idx)].data(),
                            batch, op.cin, cfg.height, cfg.width, op.k,
                            op.k / 2, col.data());
        const double im2col = us_since(t0);
        t0 = Clock::now();
        op.gemm(col.data(), gemm_out.data(), cols);
        if (rep >= 0) {
          t_im2col[i].push_back(im2col);
          t_gemm[i].push_back(us_since(t0));
        }
      }
      if (rep < 0) continue;
      t_predict.push_back(whole);
      total += whole;
      if (rep + 1 >= kMinReps && total >= kMinTotalUs) break;
    }
    prof.predict_us += count * median(t_predict);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      prof.layers[i].us += count * median(t_layer[i]);
      if (!ops[i].conv) continue;
      prof.layers[i].im2col_us += count * median(t_im2col[i]);
      prof.layers[i].gemm_us += count * median(t_gemm[i]);
    }
  }
  if (weighted_evals > 0.0) {
    prof.predict_us /= weighted_evals;
    for (LayerProfile& lp : prof.layers) {
      lp.us /= weighted_evals;
      lp.im2col_us /= weighted_evals;
      lp.gemm_us /= weighted_evals;
    }
  }
  return prof;
}

}  // namespace e2e
