// Planned complex-to-complex FFTs (the cuFFT substitute).
//
// Conventions (used consistently by the physics layer and its adjoints):
//   forward:  X[k] = sum_j x[j] exp(-2πi jk / n)      (unnormalized)
//   inverse:  x[j] = (1/n) sum_k X[k] exp(+2πi jk/n)
// so inverse(forward(x)) == x, and the adjoint of `forward` is
// n * inverse (used by the gradient engine — see core/gradient_engine.cpp).
//
// Power-of-two sizes run the iterative Cooley–Tukey kernel in fused
// radix-4 stage pairs. Any other size runs Bluestein's chirp-z algorithm
// on a padded power-of-two plan through the same radix-4 kernel. Plans
// are immutable after construction and safe to share across threads: the
// contiguous Bluestein path keeps its padded scratch per thread, and the
// strided entry points take caller scratch.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace ptycho::fft {

namespace detail {
struct Radix4Tables;
}

[[nodiscard]] constexpr bool is_pow2(usize n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
[[nodiscard]] usize next_pow2(usize n);

/// One-dimensional plan for a fixed size n >= 1.
class Plan1D {
 public:
  explicit Plan1D(usize n);
  ~Plan1D();
  Plan1D(Plan1D&&) noexcept;
  Plan1D& operator=(Plan1D&&) noexcept;
  Plan1D(const Plan1D&) = delete;
  Plan1D& operator=(const Plan1D&) = delete;

  [[nodiscard]] usize size() const { return n_; }

  /// In-place transform of `n` contiguous elements.
  void forward(cplx* data) const;
  void inverse(cplx* data) const;

  /// Scratch elements a caller must provide to the strided entry points for
  /// a batch of `count` interleaved signals (0 for power-of-two sizes; the
  /// Bluestein path needs a padded m x count tile).
  [[nodiscard]] usize strided_scratch_size(usize count) const;

  /// Batched strided transform of `count` interleaved signals: element j of
  /// signal b sits at data[j*stride + b] (stride >= count). The butterflies
  /// run across the contiguous lane dimension, so a column block gathered
  /// into this layout vectorizes where the one-column-at-a-time path cannot.
  /// `scratch` must hold strided_scratch_size(count) elements (may be null
  /// when that is 0). Each lane runs the same operation sequence as the
  /// contiguous single-signal transform.
  void forward_strided(cplx* data, usize stride, usize count, cplx* scratch) const;
  void inverse_strided(cplx* data, usize stride, usize count, cplx* scratch) const;

 private:
  struct BluesteinTables;

  usize n_ = 0;
  std::unique_ptr<detail::Radix4Tables> pow2_;  // set when n is a power of two
  std::unique_ptr<BluesteinTables> bluestein_;  // set otherwise
};

namespace detail {
/// Radix-4 stage schedule for a pow2 size: consecutive radix-2 stages
/// (decimation in time over bit-reversal-ordered data) fused in pairs.
/// For odd log2(n) a single radix-2 stage at half-length 1
/// (twiddle 1, multiply-free) runs first, then every remaining stage pair is
/// one radix-4 butterfly sweep: half the passes over the data and three
/// complex multiplies per four outputs instead of four.
struct Radix4Tables {
  /// Quarter-length h and offset of this fused stage's twiddles in `tw`
  /// (layout per stage: w1[0..h) | w2[0..h) | w3[0..h), where
  /// w1 = exp(-2πi k/2h), w2 = exp(-2πi k/4h), w3 = exp(-2πi 3k/4h)).
  struct Stage {
    usize h;
    usize offset;
  };
  std::vector<usize> bitrev;    // bit-reversal permutation, applied first
  bool leading_radix2 = false;  // log2(n) odd: one plain radix-2 stage first
  std::vector<Stage> stages;
  std::vector<cplx> tw;
};

/// Build the permutation, radix-4 schedule and twiddles for pow2 size n.
[[nodiscard]] Radix4Tables make_radix4_tables(usize n);

/// In-place DIT FFT on pow2-sized data through fused radix-4 stage pairs:
/// bit-reversal first, `sign` = -1 forward / +1 inverse, unnormalized.
void radix4_transform(cplx* data, usize n, int sign, const Radix4Tables& r4);

/// Batched variant of radix4_transform: `count` interleaved signals with
/// element j of signal b at data[j*stride + b]. Butterflies loop over the
/// contiguous lane dimension (unit stride), so the hot inner loop
/// vectorizes across the batch.
void radix4_transform_strided(cplx* data, usize n, usize stride, usize count, int sign,
                              const Radix4Tables& r4);
}  // namespace detail

}  // namespace ptycho::fft
