#include "kernels/pipeline/gather_pack.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/macros.h"

namespace lce::pipeline {

template <typename T>
void GatherPatchRows(const T* input, const Conv2DGeometry& g, T pad,
                     std::int64_t row0, int rows, std::int64_t ld, T* dst) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const int c = g.in_c;
  const int run = g.filter_w * c;
  const std::int64_t k = static_cast<std::int64_t>(g.filter_h) * run;
  for (int r = 0; r < rows; ++r) {
    T* d = dst + r * ld;
    const std::int64_t row = row0 + r;
    const std::int64_t q = row / out_w;
    const std::int64_t b = q / out_h;
    const int iy0 = static_cast<int>(q % out_h) * g.stride_h - pad_h;
    const int ix0 = static_cast<int>(row % out_w) * g.stride_w - pad_w;
    // A filter row whose taps all lie inside the image is one contiguous
    // run of filter_w * in_c elements.
    const bool row_inside = ix0 >= 0 && ix0 + g.filter_w <= g.in_w;
    for (int ky = 0; ky < g.filter_h; ++ky, d += run) {
      const int iy = iy0 + ky;
      if (iy < 0 || iy >= g.in_h) {
        std::fill_n(d, run, pad);
        continue;
      }
      const T* line = input + (b * g.in_h + iy) * g.in_w * c;
      if (row_inside) {
        std::memcpy(d, line + static_cast<std::int64_t>(ix0) * c,
                    sizeof(T) * run);
        continue;
      }
      for (int kx = 0; kx < g.filter_w; ++kx) {
        const int ix = ix0 + kx;
        if (ix < 0 || ix >= g.in_w) {
          std::fill_n(d + kx * c, c, pad);
        } else {
          std::memcpy(d + kx * c, line + static_cast<std::int64_t>(ix) * c,
                      sizeof(T) * c);
        }
      }
    }
    if (k < ld) std::fill_n(d, ld - k, T{0});
  }
}

template void GatherPatchRows<float>(const float*, const Conv2DGeometry&,
                                     float, std::int64_t, int, std::int64_t,
                                     float*);
template void GatherPatchRows<std::int8_t>(const std::int8_t*,
                                           const Conv2DGeometry&, std::int8_t,
                                           std::int64_t, int, std::int64_t,
                                           std::int8_t*);

IndirectionOffsets::IndirectionOffsets(const Conv2DGeometry& g) {
  words_ = BitpackedWords(g.in_c);
  taps_ = g.filter_h * g.filter_w;
  const int out_h = g.out_h(), out_w = g.out_w();
  rows_ = static_cast<std::int64_t>(g.batch) * out_h * out_w;
  // Offsets are stored as int32 word indices; any input addressable within
  // that range is far beyond the resource limits of the untrusted-model
  // path, so this only guards the trusted standalone-kernel API.
  LCE_CHECK(static_cast<std::int64_t>(g.batch) * g.in_h * g.in_w * words_ <=
            std::numeric_limits<std::int32_t>::max());
  offsets_.resize(static_cast<std::size_t>(rows_) * taps_);

  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::size_t idx = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        const int iy0 = oy * g.stride_h - pad_h;
        const int ix0 = ox * g.stride_w - pad_w;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = iy0 + ky;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ix0 + kx;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
              offsets_[idx++] = kPaddedTap;
            } else {
              offsets_[idx++] = static_cast<std::int32_t>(
                  ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w + ix) *
                  words_);
            }
          }
        }
      }
    }
  }
}

void GatherRowPointers(const TBitpacked* input, const IndirectionOffsets& ind,
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

}  // namespace lce::pipeline
