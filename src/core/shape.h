// Tensor shapes. Activations are NHWC; convolution weights are OHWI
// (output-channels, height, width, input-channels), matching TFLite.
#ifndef LCE_CORE_SHAPE_H_
#define LCE_CORE_SHAPE_H_

#include <array>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>

#include "core/macros.h"

namespace lce {

// A small fixed-capacity shape (up to 6 dims), value semantic.
class Shape {
 public:
  static constexpr int kMaxDims = 6;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    LCE_CHECK_LE(static_cast<int>(dims.size()), kMaxDims);
    rank_ = static_cast<int>(dims.size());
    int i = 0;
    for (auto d : dims) dims_[i++] = d;
  }

  int rank() const { return rank_; }

  std::int64_t dim(int i) const {
    LCE_DCHECK(i >= 0 && i < rank_);
    return dims_[i];
  }

  std::int64_t& dim(int i) {
    LCE_DCHECK(i >= 0 && i < rank_);
    return dims_[i];
  }

  std::int64_t operator[](int i) const { return dim(i); }

  // Total number of logical elements. Only safe on shapes whose dimension
  // product is known to fit in int64 (all validated shapes); use
  // checked_num_elements on model-derived shapes.
  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  // Overflow-checked element count for untrusted shapes: returns false (and
  // leaves *out untouched) if any dimension is negative or the product
  // overflows int64. Adversarial dimension combinations must produce errors,
  // not signed-overflow UB.
  bool checked_num_elements(std::int64_t* out) const {
    std::int64_t n = 1;
    for (int i = 0; i < rank_; ++i) {
      if (dims_[i] < 0) return false;
      if (__builtin_mul_overflow(n, dims_[i], &n)) return false;
    }
    *out = n;
    return true;
  }

  bool operator==(const Shape& other) const {
    if (rank_ != other.rank_) return false;
    for (int i = 0; i < rank_; ++i) {
      if (dims_[i] != other.dims_[i]) return false;
    }
    return true;
  }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string ToString() const {
    std::string s = "[";
    for (int i = 0; i < rank_; ++i) {
      if (i) s += ", ";
      s += std::to_string(dims_[i]);
    }
    s += "]";
    return s;
  }

 private:
  int rank_ = 0;
  std::array<std::int64_t, kMaxDims> dims_{};
};

// The input geometry one compiled model executes (docs/SERVING.md): the
// leading (batch) dimension of its graph inputs and the spatial extent of
// its rank-4 [N, H, W, C] image inputs -- (0, 0) for a graph without one.
// Ordered, so it keys the specialization registry and the batch scheduler
// alike.
struct InputSignature {
  int batch = 1;
  int h = 0;
  int w = 0;

  auto operator<=>(const InputSignature&) const = default;
  std::string ToString() const {
    std::string s = "{";
    s += std::to_string(batch) + ", " + std::to_string(h) + ", " +
         std::to_string(w) + "}";
    return s;
  }
};

}  // namespace lce

#endif  // LCE_CORE_SHAPE_H_
