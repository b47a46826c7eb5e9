#include "im2col.h"

#include <cstring>

namespace lce {
namespace {

// Shared loop structure: `copy_row(src_offset_elems, dst_offset_elems)`
// copies one (kh, kw) pixel's channel vector; `pad_row(dst_offset_elems)`
// fills it with the padding value. Offsets are in channel-vector units.
template <typename CopyFn, typename PadFn>
void ForEachPatchElement(const Conv2DGeometry& g, CopyFn copy_px,
                         PadFn pad_px) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t dst = 0;
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
              pad_px(dst);
            } else {
              const std::int64_t src =
                  (static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w + ix;
              copy_px(src, dst);
            }
            ++dst;
          }
        }
      }
    }
  }
}

}  // namespace

void Im2ColFloat(const float* input, const Conv2DGeometry& g, float pad_value,
                 float* output) {
  const int c = g.in_c;
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * c, input + src * c, c * sizeof(float));
      },
      [&](std::int64_t dst) {
        float* o = output + dst * c;
        for (int i = 0; i < c; ++i) o[i] = pad_value;
      });
}

void Im2ColInt8(const std::int8_t* input, const Conv2DGeometry& g,
                std::int8_t pad_value, std::int8_t* output) {
  const int c = g.in_c;
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * c, input + src * c, c);
      },
      [&](std::int64_t dst) { std::memset(output + dst * c, pad_value, c); });
}

void Im2ColBitpacked(const TBitpacked* input, const Conv2DGeometry& g,
                     TBitpacked* output) {
  const int words = BitpackedWords(g.in_c);
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * words, input + src * words,
                    static_cast<std::size_t>(words) * sizeof(TBitpacked));
      },
      [&](std::int64_t dst) {
        std::memset(output + dst * words, 0,
                    static_cast<std::size_t>(words) * sizeof(TBitpacked));
      });
}

void Im2ColBitpackedGroup(const TBitpacked* input, const Conv2DGeometry& g,
                          int total_words, int word_begin, int word_count,
                          TBitpacked* output) {
  ForEachPatchElement(
      g,
      [&](std::int64_t src, std::int64_t dst) {
        std::memcpy(output + dst * word_count,
                    input + src * total_words + word_begin,
                    static_cast<std::size_t>(word_count) * sizeof(TBitpacked));
      },
      [&](std::int64_t dst) {
        std::memset(output + dst * word_count, 0,
                    static_cast<std::size_t>(word_count) * sizeof(TBitpacked));
      });
}

}  // namespace lce
