#pragma once
// Channel packing (Sec IV-B, Fig 5): the daBNN-style memory layout.
//
// To keep CPU vector registers full, bits from *different channels* at
// the *same spatial position* are packed together into machine words:
// word w of pixel (y, x) holds channels [64w, 64w+63]. The same layout
// is used for kernels: word w of kernel position (o, ky, kx) holds input
// channels [64w, 64w+63]. A stored bit of 1 encodes +1 and 0 encodes -1.
//
// When the channel count is not a multiple of 64 the last word is only
// partially populated; `tail_mask` marks the valid lanes. (The paper's
// ReActNet channel counts are powers of two >= 32, so at most the first
// block uses a partial word; the general case is still fully supported
// and tested.)
//
// Layout invariants (the fast convolution kernels in
// bnn/bconv_kernels.h are mask-free and branch-free because of them):
//   * Storage bits above `channels` in the tail word are always zero -
//     the constructors zero-fill and set_bit touches valid lanes only.
//     With both operands zero there, every masked-off lane contributes a
//     constant xnor agreement instead of needing a per-word mask.
//   * A feature may carry a spatial halo of `h` pixels on every side:
//     storage is (H + 2h) x (W + 2h) pixels and every rim word is zero.
//     A stored 0 encodes -1, which is exactly the paper's padding value
//     (Sec IV-B), so a feature packed with halo >= padding *is* the
//     padded conv input and every output pixel reads in-bounds words.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace bkc::bnn {

/// Bits per packing word. 64-bit words are the portable equivalent of
/// the 128-bit NEON registers daBNN targets; the timing model accounts
/// for register width separately.
inline constexpr int kWordBits = 64;

/// Number of words needed to hold `channels` one-bit lanes.
inline std::int64_t words_per_group(std::int64_t channels) {
  return (channels + kWordBits - 1) / kWordBits;
}

/// Mask of valid lanes in the last word of a channel group.
std::uint64_t channel_tail_mask(std::int64_t channels);

/// A binarized feature map in channel-packed layout.
class PackedFeature {
 public:
  PackedFeature() = default;

  /// Zero-initialised (all values -1) packed map of the given shape,
  /// surrounded by a zero rim of `halo` pixels.
  explicit PackedFeature(FeatureShape shape, std::int64_t halo = 0);

  /// Re-dimension in place to `shape` with a `halo`-pixel rim, zeroing
  /// all words (rim included). Reuses the existing word storage when it
  /// is large enough (see reserve_words), so a Workspace can recycle one
  /// PackedFeature as pack scratch across every binary conv of a model
  /// without heap traffic.
  void reshape(FeatureShape shape, std::int64_t halo = 0);

  /// Pre-grow the word storage so later reshape() calls up to `words`
  /// total words never allocate.
  void reserve_words(std::int64_t words);

  /// Logical shape (the halo is not part of it).
  const FeatureShape& shape() const { return shape_; }
  std::int64_t halo() const { return halo_; }
  /// Stored pixels per row: width + 2 * halo.
  std::int64_t padded_width() const { return shape_.width + 2 * halo_; }
  std::int64_t words_per_pixel() const { return words_per_pixel_; }
  std::uint64_t tail_mask() const { return tail_mask_; }

  /// Words for pixel (y, x) in logical coordinates, lowest channels in
  /// word 0 bit 0. Rim pixels are addressable: y in [-halo, height +
  /// halo), x in [-halo, width + halo).
  std::span<const std::uint64_t> at(std::int64_t y, std::int64_t x) const;
  std::span<std::uint64_t> at(std::int64_t y, std::int64_t x);

  /// Get/set the bit for channel c at logical pixel (y, x). 1 encodes
  /// +1. set_bit rejects rim pixels, so the rim stays zero.
  int bit(std::int64_t c, std::int64_t y, std::int64_t x) const;
  void set_bit(std::int64_t c, std::int64_t y, std::int64_t x, int value);

  /// Total payload bits actually used (channels * height * width).
  std::int64_t payload_bits() const { return shape_.size(); }

  /// Whole word storage, rim included, pixel-major over the padded
  /// grid: logical pixel (y, x) owns words
  /// [((y + halo) * padded_width + x + halo) * words_per_pixel, ...).
  /// Writers must preserve both layout invariants (tail-word bits above
  /// `channels` and every rim word stay zero); pack_feature_into is the
  /// intended bulk writer.
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

 private:
  FeatureShape shape_;
  std::int64_t halo_ = 0;
  std::int64_t words_per_pixel_ = 0;
  std::uint64_t tail_mask_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Storage words of a `shape` feature packed with a `halo`-pixel rim.
std::int64_t padded_feature_words(const FeatureShape& shape,
                                  std::int64_t halo);

/// A binarized convolution kernel in channel-packed layout.
class PackedKernel {
 public:
  PackedKernel() = default;
  explicit PackedKernel(KernelShape shape);

  const KernelShape& shape() const { return shape_; }
  std::int64_t words_per_position() const { return words_per_position_; }
  std::uint64_t tail_mask() const { return tail_mask_; }

  /// Words for output channel o at kernel position (ky, kx).
  std::span<const std::uint64_t> at(std::int64_t o, std::int64_t ky,
                                    std::int64_t kx) const;
  std::span<std::uint64_t> at(std::int64_t o, std::int64_t ky,
                              std::int64_t kx);

  /// Get/set the bit for input channel i. 1 encodes +1.
  int bit(std::int64_t o, std::int64_t i, std::int64_t ky,
          std::int64_t kx) const;
  void set_bit(std::int64_t o, std::int64_t i, std::int64_t ky,
               std::int64_t kx, int value);

  /// Uncompressed storage in bits: one bit per weight (the paper's
  /// baseline storage figure for binary convs).
  std::int64_t payload_bits() const { return shape_.size(); }

  bool operator==(const PackedKernel& other) const = default;

 private:
  KernelShape shape_;
  std::int64_t words_per_position_ = 0;
  std::uint64_t tail_mask_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Binarize (Eq. 1: bit = v >= 0) and channel-pack a float feature map
/// into caller-provided storage: reshapes `out` to the input shape with
/// a `halo`-pixel zero rim (no allocation once storage is reserved) and
/// ORs whole channel planes into the packed words with one branch-free
/// pass per channel. The forward path packs through here using the
/// Workspace pack scratch, with halo equal to the consuming conv's
/// padding.
void pack_feature_into(ConstTensorView input, PackedFeature& out,
                       std::int64_t halo = 0);

}  // namespace bkc::bnn
