#pragma once
// Stride-1, same-padding 2-D convolution.
//
// fp32 inference runs conv2d_bias_relu (tensor/ops.hpp): the GEMM reads the
// weights in place and gathers its B panels straight from a zero-padded
// copy of the input, so no lowered (im2col) column buffer is built and the
// output lands in [B, Cout, H, W] order directly, with the bias and
// optional ReLU fused into the store epilogue.
//
// What remains of the im2col lowering serves two callers: training, where
// forward() also writes each sample's columns into the caller's col cache
// for backward(), and the int8 conv (QuantizedConv2d, nn/quantize.cpp),
// whose kernel packs quantized activations from columns and lowers its
// input in sub-batches through a ConvWorkspace.
//
// Thread-safety contract: forward() is const and reads only the weights, so
// any number of inference threads may call it concurrently as long as each
// supplies its own workspace. backward() accumulates into the parameter
// gradients and must be externally serialised (the training pipeline is
// single-threaded by design, matching the paper's separate "DNN training
// stage").

#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace apm {

// Scratch for the int8 conv's lowering (QuantizedConv2d): the batched
// im2col buffer and the pre-permute GEMM output. One per inference thread,
// shared by all layers; the fp32 forward does not touch it.
//
// kColBudgetBytes bounds the resident scratch (col chunk + ybuf chunk):
// very large batches are lowered in cache-resident sub-batches instead of
// one monolithic col buffer (conv3 at B=128 on the paper net is a ≈66 MB
// col — far off the cache cliff).
struct ConvWorkspace {
  static constexpr std::size_t kColBudgetBytes = 4u << 20;

  Tensor col;   // [Cin*k*k, chunk*H*W]
  Tensor ybuf;  // [Cout, chunk*H*W] (GEMM output before the B-major permute)
};

class Conv2d {
 public:
  // ksize must be odd; padding is ksize/2 (output size == input size).
  Conv2d(std::string name, int in_channels, int out_channels, int ksize);

  // He-normal init of weights, zero biases.
  void init(Rng& rng);

  // x: [B, Cin, H, W] -> y: [B, Cout, H, W] (ReLU'd when fuse_relu).
  // When col_cache != nullptr it receives the per-image columns (needed by
  // backward), laid out as [B, Cin*k*k, H*W]. ws is the int8 conv's scratch;
  // this fp32 pass does not use it, and takes it so both precisions share
  // one call shape.
  void forward(const Tensor& x, Tensor& y, ConvWorkspace& ws,
               Tensor* col_cache = nullptr, bool fuse_relu = false) const;

  // dy: [B, Cout, H, W]; col_cache from forward; dx: [B, Cin, H, W]
  // (overwritten). Accumulates weight/bias gradients.
  void backward(const Tensor& dy, const Tensor& col_cache, Tensor& dx,
                Tensor& dcol_scratch);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int ksize() const { return ksize_; }

  std::vector<Param*> params() { return {&w_, &b_}; }
  const Param& weight() const { return w_; }
  const Param& bias() const { return b_; }

 private:
  int in_channels_;
  int out_channels_;
  int ksize_;
  int pad_;
  Param w_;  // [Cout, Cin*k*k]
  Param b_;  // [Cout]
};

}  // namespace apm
