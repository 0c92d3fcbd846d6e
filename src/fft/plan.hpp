// Planned complex-to-complex FFTs over power-of-two lengths (the cuFFT
// substitute).
//
// Conventions (used consistently by the physics layer and its adjoints):
//   forward:  X[k] = sum_j x[j] exp(-2πi jk / n)      (unnormalized)
//   inverse:  x[j] = (1/n) sum_k X[k] exp(+2πi jk/n)
// so inverse(forward(x)) == x, and the adjoint of `forward` is
// n * inverse (used by the gradient engine — see core/gradient_engine.cpp).
//
// The engine is one pair of batched kernels that need no permutation:
//   forward_dif  decimation in frequency: natural-order input,
//                bit-reversed output;
//   inverse_dit  decimation in time: bit-reversed input, natural-order
//                output, unnormalized (inverse_dit(forward_dif(x)) == n x).
// Both fuse consecutive radix-2 stages into radix-4 butterfly sweeps over
// the same twiddle tables. For odd log2(n) one multiply-free radix-2 stage
// runs last in the forward and first in the inverse. Whoever sits between
// the two (the 2-D engine's spectral multiply) works on the bit-reversed
// spectrum directly. Plans are immutable after construction and safe to
// share across threads.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace ptycho::fft {

[[nodiscard]] constexpr bool is_pow2(usize n) { return n != 0 && (n & (n - 1)) == 0; }

/// One-dimensional plan for a fixed power-of-two size n (throws
/// ptycho::Error for any other n).
class Plan1D {
 public:
  explicit Plan1D(usize n);

  [[nodiscard]] usize size() const { return n_; }

  /// Index i with its log2(n) bits reversed: where forward_dif leaves
  /// frequency i (and where inverse_dit expects it).
  [[nodiscard]] usize bitrev(usize i) const { return bitrev_[i]; }

  /// Batched strided transforms of `count` interleaved signals: element j
  /// of signal b sits at data[j*stride + b] (stride >= count). The
  /// butterflies run across the contiguous lane dimension, so a block of
  /// columns vectorizes as is.
  void forward_dif(cplx* data, usize stride, usize count) const;
  void inverse_dit(cplx* data, usize stride, usize count) const;

  /// Natural-order in-place transforms of `n` contiguous elements: the
  /// strided pair at count 1 plus an explicit bit reversal. The inverse is
  /// normalized by 1/n. Reference and test code; the engine never runs
  /// them.
  void forward(cplx* data) const;
  void inverse(cplx* data) const;

 private:
  /// One fused radix-4 stage: quarter-length h and the offset of its
  /// twiddles in `tw_` (w1[0..h) | w2[0..h) | w3[0..h), with
  /// w1 = exp(-2πi k/2h), w2 = exp(-2πi k/4h), w3 = exp(-2πi 3k/4h)).
  struct Stage {
    usize h;
    usize offset;
  };

  void bit_reverse(cplx* data) const;

  usize n_ = 0;
  bool odd_log2_ = false;      // one radix-2 stage besides the radix-4 ones
  std::vector<usize> bitrev_;
  std::vector<Stage> stages_;  // DIT order (h ascending); the DIF runs them in reverse
  std::vector<cplx> tw_;
};

}  // namespace ptycho::fft
