// Cache-line aligned, RAII-managed raw storage for tensors and packed
// GEMM panels.
#ifndef LCE_CORE_ALIGNED_BUFFER_H_
#define LCE_CORE_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "core/macros.h"

namespace lce {

inline constexpr std::size_t kDefaultAlignment = 64;  // one cache line

// Owns a block of aligned memory. Move-only.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  // Allocation failure throws std::bad_alloc rather than aborting: arena
  // and scratch exhaustion is runtime load, not a programmer error, and the
  // serving path converts it to Status::ResourceExhausted at its catch
  // points (ExecutionContext construction and Invoke). Code with no catch
  // point keeps the old die-on-OOM behavior via std::terminate.
  //
  // The contents start unspecified. Where NDEBUG is not defined (Debug and
  // sanitizer builds) they are filled with 0xFF -- NaN as floats, -1 as
  // integers, every bitpacked channel -1 -- so an arena, tensor or packed
  // buffer read before it is written fails deterministically instead of
  // reading whatever the allocator left. Release builds skip the fill.
  explicit AlignedBuffer(std::size_t size_bytes,
                         std::size_t alignment = kDefaultAlignment)
      : size_(size_bytes) {
    if (size_bytes == 0) return;
    // Round the size up to a multiple of the alignment as required by
    // std::aligned_alloc.
    const std::size_t rounded =
        (size_bytes + alignment - 1) / alignment * alignment;
    data_ = static_cast<std::uint8_t*>(std::aligned_alloc(alignment, rounded));
    if (data_ == nullptr) throw std::bad_alloc();
#ifndef NDEBUG
    std::memset(data_, 0xFF, rounded);
#endif
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { Free(); }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

  void Zero() {
    if (data_ != nullptr) std::memset(data_, 0, size_);
  }

 private:
  void Free() {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace lce

#endif  // LCE_CORE_ALIGNED_BUFFER_H_
