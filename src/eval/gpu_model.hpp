#pragma once
// Accelerator (GPU) timing model and the simulated-GPU inference backend.
//
// The paper offloads batched DNN inference to an RTX A6000 over PCIe 4.0
// (§3.3, §5.1). This host has no GPU, so the backend substitutes:
//   * results   — computed for real on the CPU (the search still receives
//                 true policy/value numbers), and
//   * timing    — taken from an analytic model with the monotonicity
//                 properties §4.1 relies on:
//                   T_PCIe(B)        = L + B·bytes/BW   (per transfer)
//                   T_compute(B)     monotonically increasing in B,
//                                    sub-linear below the saturation batch
//                 so T_total over N samples split into N/B transfers is
//                 decreasing in B for the transfer part and increasing for
//                 the compute part — the "V-sequence" of Algorithm 4.
//
// The model parameters default to public A6000 / PCIe 4.0 x16 figures and
// can be overridden (they are inputs of the design-configuration workflow,
// §4.2).

#include <atomic>

#include "eval/evaluator.hpp"

namespace apm {

struct GpuTimingModel {
  // Fixed cost per batch submission: kernel launch + driver overhead (µs).
  double kernel_launch_us = 12.0;
  // Effective host↔device bandwidth (GB/s). PCIe 4.0 x16 ≈ 25 GB/s usable.
  double pcie_gbps = 25.0;
  // Bytes moved per sample (input planes + policy + value, fp32).
  double sample_bytes = 4096.0;
  // Kernel time for a batch-1 inference (µs).
  double compute_base_us = 55.0;
  // Marginal per-sample compute beyond batch 1, in the *saturated* regime
  // (µs/sample).
  double compute_per_sample_us = 9.0;
  // Batch size at which the GPU's parallel units saturate; below this,
  // marginal samples cost only `subsat_fraction` of the saturated rate.
  int saturation_batch = 24;
  double subsat_fraction = 0.18;

  // One host→device+device→host transfer of a batch of B samples (µs).
  double transfer_us(int batch) const;

  // Kernel execution time for a batch of B samples (µs); monotonically
  // increasing in B.
  double compute_us(int batch) const;

  // Transfer + compute for one batch (µs).
  double batch_total_us(int batch) const {
    return transfer_us(batch) + compute_us(batch);
  }

  // Total PCIe time to move N samples as ceil(N/B) transfers (µs) —
  // the T_PCIe term of Eq. 6.
  double pcie_total_us(int n_samples, int batch) const;
};

// An inference backend: computes batches synchronously and reports the
// latency the platform being modelled would have taken. For the CPU
// backend, modelled latency == measured latency.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;
  virtual int action_count() const = 0;
  virtual std::size_t input_size() const = 0;

  // Computes `n` results. Returns the *modelled* latency in µs for this
  // batch on the target device.
  virtual double compute_batch(const float* inputs, int n,
                               EvalOutput* outs) = 0;

  // Modelled latency without executing (used by Eqs. 4/6 and the DES).
  virtual double model_batch_us(int n) const = 0;
};

// Runs batches on the host via any Evaluator; modelled latency is the
// measured wall-clock of the call.
class CpuBackend final : public InferenceBackend {
 public:
  explicit CpuBackend(Evaluator& eval) : eval_(eval) {}

  int action_count() const override { return eval_.action_count(); }
  std::size_t input_size() const override { return eval_.input_size(); }
  double compute_batch(const float* inputs, int n, EvalOutput* outs) override;
  double model_batch_us(int n) const override;

 private:
  Evaluator& eval_;
  // Best observed per-sample latency (µs); drives model_batch_us. Atomic:
  // every thread running an AsyncBatchEvaluator batch updates it.
  std::atomic<double> amortized_single_us_{-1.0};
};

// Simulated GPU: real results via the wrapped evaluator, timing from
// GpuTimingModel. When `emulate_wall_time` is set the call additionally
// busy-waits so that wall-clock experiments on a real multi-core host see
// the modelled latency; the DES-based benches leave it off.
class SimGpuBackend final : public InferenceBackend {
 public:
  SimGpuBackend(Evaluator& eval, GpuTimingModel model,
                bool emulate_wall_time = false)
      : eval_(eval), model_(model), emulate_wall_time_(emulate_wall_time) {}

  int action_count() const override { return eval_.action_count(); }
  std::size_t input_size() const override { return eval_.input_size(); }
  double compute_batch(const float* inputs, int n, EvalOutput* outs) override;
  double model_batch_us(int n) const override {
    return model_.batch_total_us(n);
  }

  const GpuTimingModel& model() const { return model_; }

 private:
  Evaluator& eval_;
  GpuTimingModel model_;
  bool emulate_wall_time_;
};

}  // namespace apm
