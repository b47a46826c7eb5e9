#include "kernels/pipeline/gather_pack.h"

#include <cstring>

namespace lce::pipeline {

void GatherRowPointers(const TBitpacked* input,
                       const gemm::IndirectionOffsets& ind,
                       const TBitpacked* zero_row, std::int64_t row0,
                       int nrows, bool interior, const TBitpacked** dst) {
  const int taps = ind.taps();
  const std::int32_t* offs = ind.row(row0);
  const std::int64_t n = static_cast<std::int64_t>(nrows) * taps;
  if (interior) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = input + offs[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      dst[i] = offs[i] < 0 ? zero_row : input + offs[i];
    }
  }
}

void GatherStageInt8Dot(const std::int8_t* input,
                        const gemm::IndirectionOffsets& ind,
                        std::int8_t pad_value, std::int64_t row0,
                        int tile_rows, int lda, bool interior,
                        std::int8_t* dst) {
  const int taps = ind.taps();
  const int in_c = ind.words();  // elems_per_pixel: bytes for int8 inputs
  const int k = taps * in_c;
  for (int r = 0; r < tile_rows; ++r) {
    std::int8_t* drow = dst + static_cast<std::int64_t>(r) * lda;
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) {
      std::memset(drow, 0, static_cast<std::size_t>(lda));
      continue;
    }
    const std::int32_t* offs = ind.row(row);
    std::int8_t* sp = drow;
    if (interior) {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        std::memcpy(sp, input + offs[t], static_cast<std::size_t>(in_c));
      }
    } else {
      for (int t = 0; t < taps; ++t, sp += in_c) {
        const std::int32_t off = offs[t];
        if (off < 0) {
          std::memset(sp, pad_value, static_cast<std::size_t>(in_c));
        } else {
          std::memcpy(sp, input + off, static_cast<std::size_t>(in_c));
        }
      }
    }
    if (k < lda) std::memset(drow + k, 0, static_cast<std::size_t>(lda - k));
  }
}

void PrefetchInt8GatherSources(const std::int8_t* input,
                               const gemm::IndirectionOffsets& ind,
                               std::int64_t row0, int tile_rows) {
#if defined(__GNUC__) || defined(__clang__)
  const int taps = ind.taps();
  const int in_c = ind.words();
  for (int r = 0; r < tile_rows; ++r) {
    const std::int64_t row = row0 + r;
    if (row >= ind.rows()) return;
    const std::int32_t* offs = ind.row(row);
    for (int t = 0; t < taps; ++t) {
      const std::int32_t off = offs[t];
      if (off < 0) continue;  // padded tap: nothing to fetch
      for (int b = 0; b < in_c; b += 64) {
        __builtin_prefetch(input + off + b, /*rw=*/0, /*locality=*/3);
      }
    }
  }
#else
  (void)input;
  (void)ind;
  (void)row0;
  (void)tile_rows;
#endif
}

}  // namespace lce::pipeline
