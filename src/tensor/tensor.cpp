#include "tensor/tensor.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

namespace apm {

namespace {

std::size_t element_count(const int* dims, std::size_t rank) {
  std::size_t n = 1;
  for (std::size_t i = 0; i < rank; ++i) {
    APM_CHECK_MSG(dims[i] >= 0, "negative tensor dimension");
    n *= static_cast<std::size_t>(dims[i]);
  }
  return n;
}

}  // namespace

void Tensor::resize(const int* dims, std::size_t rank) {
  const std::size_t n = element_count(dims, rank);
  if (dims != shape_.data()) shape_.assign(dims, dims + rank);
  numel_ = n;
  if (data_.size() < n) data_.resize(n);
}

void Tensor::reshape(const int* dims, std::size_t rank) {
  APM_CHECK_MSG(element_count(dims, rank) == numel_,
                "reshape must preserve the element count");
  if (dims != shape_.data()) shape_.assign(dims, dims + rank);
}

std::string Tensor::shape_str() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) out << ',';
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(numel_),
            value);
}

void Tensor::fill_randn(Rng& rng, float stddev) {
  for (std::size_t i = 0; i < numel_; i += 2) {
    // Box-Muller; u1 in (0,1] to avoid log(0).
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    data_[i] = static_cast<float>(mag * std::cos(2.0 * M_PI * u2) * stddev);
    if (i + 1 < numel_) {
      data_[i + 1] =
          static_cast<float>(mag * std::sin(2.0 * M_PI * u2) * stddev);
    }
  }
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (std::size_t i = 0; i < numel_; ++i) {
    data_[i] = lo + (hi - lo) * rng.uniform_float();
  }
}

Tensor Tensor::zeros(const std::vector<int>& shape) {
  Tensor t(shape);
  t.zero();
  return t;
}

Tensor Tensor::randn(const std::vector<int>& shape, Rng& rng, float stddev) {
  Tensor t(shape);
  t.fill_randn(rng, stddev);
  return t;
}

}  // namespace apm
