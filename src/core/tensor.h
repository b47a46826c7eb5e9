// Tensor: a typed, shaped view over aligned storage.
//
// Layout conventions (matching TFLite / the LCE paper):
//   * Activations: NHWC.
//   * Convolution weights: OHWI.
//   * Bitpacked tensors store the *logical* shape; the innermost dimension is
//     packed 32 values per TBitpacked word and padded up to a multiple of 32
//     with 0 bits (which encode +1.0 -- the paper's one-padding convention).
#ifndef LCE_CORE_TENSOR_H_
#define LCE_CORE_TENSOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/macros.h"
#include "core/quantization.h"
#include "core/shape.h"
#include "core/types.h"

namespace lce {

class Tensor {
 public:
  Tensor() = default;

  // Allocates owned storage for the given logical shape and type.
  Tensor(DataType dtype, Shape shape) : dtype_(dtype), shape_(shape) {
    buffer_ = std::make_shared<AlignedBuffer>(ByteSize(dtype, shape));
    data_ = buffer_->data();
  }

  // Wraps external storage (not owned). The caller must keep `data` alive.
  static Tensor View(DataType dtype, Shape shape, void* data) {
    Tensor t;
    t.dtype_ = dtype;
    t.shape_ = shape;
    t.data_ = static_cast<std::uint8_t*>(data);
    return t;
  }

  // Wraps one channel slice of a wider buffer (not owned): consecutive
  // innermost rows start `row_stride` storage elements apart instead of
  // back to back. Only ExecutionContext makes these, for the Concat inputs
  // it writes in place in their Concat's output (docs/PERFORMANCE.md), and
  // only the kernels listed there take one.
  static Tensor StridedView(DataType dtype, Shape shape, void* data,
                            std::int64_t row_stride) {
    Tensor t = View(dtype, shape, data);
    if (row_stride != t.row_stride()) {
      LCE_CHECK_GT(row_stride, t.row_stride());
      t.row_stride_ = row_stride;
    }
    return t;
  }

  // Storage elements from the start of one innermost row to the next: the
  // packed width of the last dimension unless this is a strided view.
  std::int64_t row_stride() const {
    if (row_stride_ != 0) return row_stride_;
    if (shape_.rank() == 0) return 1;
    return StorageElements(dtype_, Shape{shape_.dim(shape_.rank() - 1)});
  }
  bool is_dense() const { return row_stride_ == 0; }

  DataType dtype() const { return dtype_; }
  const Shape& shape() const { return shape_; }

  // Number of *logical* elements (for bitpacked tensors, the number of bits
  // before channel padding).
  std::int64_t num_elements() const { return shape_.num_elements(); }

  // Number of storage elements (words for bitpacked, scalars otherwise).
  std::int64_t storage_elements() const {
    return StorageElements(dtype_, shape_);
  }

  // Bytes of the dense layout (a strided view spans more).
  std::size_t byte_size() const { return ByteSize(dtype_, shape_); }

  bool allocated() const { return data_ != nullptr; }

  template <typename T>
  T* data() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data() const {
    return reinterpret_cast<const T*>(data_);
  }

  void* raw_data() { return data_; }
  const void* raw_data() const { return data_; }

  void Zero() {
    LCE_CHECK(data_ != nullptr && is_dense());
    std::memset(data_, 0, byte_size());
  }

  QuantParams& quant() { return quant_; }
  const QuantParams& quant() const { return quant_; }

  // --- static layout helpers -------------------------------------------

  // Storage element count for a (dtype, shape) pair. For bitpacked tensors
  // the innermost dimension is packed into ceil(C/32) words.
  static std::int64_t StorageElements(DataType dtype, const Shape& shape) {
    if (dtype != DataType::kBitpacked) return shape.num_elements();
    LCE_CHECK_GE(shape.rank(), 1);
    std::int64_t outer = 1;
    for (int i = 0; i + 1 < shape.rank(); ++i) outer *= shape.dim(i);
    return outer * BitpackedWords(static_cast<int>(shape.dim(shape.rank() - 1)));
  }

  static std::size_t ByteSize(DataType dtype, const Shape& shape) {
    return static_cast<std::size_t>(StorageElements(dtype, shape)) *
           DataTypeByteSize(dtype);
  }

  // Overflow-checked byte size for untrusted (dtype, shape) pairs. Returns
  // false on negative dimensions, element-count overflow, rank-0 bitpacked
  // shapes, or an out-of-range dtype -- all the cases where ByteSize would
  // abort or silently wrap.
  static bool CheckedByteSize(DataType dtype, const Shape& shape,
                              std::size_t* out) {
    if (!IsValidDType(static_cast<std::uint8_t>(dtype))) return false;
    std::int64_t elements = 0;
    if (dtype == DataType::kBitpacked) {
      if (shape.rank() < 1) return false;
      std::int64_t outer = 1;
      for (int i = 0; i + 1 < shape.rank(); ++i) {
        if (shape.dim(i) < 0) return false;
        if (__builtin_mul_overflow(outer, shape.dim(i), &outer)) return false;
      }
      const std::int64_t inner = shape.dim(shape.rank() - 1);
      if (inner < 0 || inner > std::numeric_limits<int>::max()) return false;
      const std::int64_t words = BitpackedWords(static_cast<int>(inner));
      if (__builtin_mul_overflow(outer, words, &elements)) return false;
    } else {
      if (!shape.checked_num_elements(&elements)) return false;
    }
    std::int64_t bytes = 0;
    const auto elem_size = static_cast<std::int64_t>(DataTypeByteSize(dtype));
    if (__builtin_mul_overflow(elements, elem_size, &bytes)) return false;
    *out = static_cast<std::size_t>(bytes);
    return true;
  }

 private:
  DataType dtype_ = DataType::kFloat32;
  Shape shape_;
  std::shared_ptr<AlignedBuffer> buffer_;  // null when viewing external data
  std::uint8_t* data_ = nullptr;
  std::int64_t row_stride_ = 0;  // 0: dense
  QuantParams quant_;
};

}  // namespace lce

#endif  // LCE_CORE_TENSOR_H_
