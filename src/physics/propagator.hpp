// Fresnel (angular-spectrum) free-space propagation between slices.
//
// Propagation over one slice thickness dz is
//   psi <- IFFT( FFT(psi) * H ),   H(k) = exp(-i*pi*lambda*dz*|k|^2)
// with a 2/3-Nyquist band limit (standard multislice anti-aliasing).
// The adjoint (needed by the gradient engine) is the same sandwich with
// conj(H) — see the normalization argument in fft/plan.hpp.
//
// Both run as one Fft2D::convolve: the spectrum stays transposed and
// bit-reversed in the FFT's tile between the forward and the inverse, so
// H is stored once, in that spectral layout (Fft2D::spectral_index), with
// the pair's 1/(probe_n^2) normalization folded in. The multislice far
// field reads the same array.
#pragma once

#include "fft/fft2d.hpp"
#include "physics/grid.hpp"
#include "tensor/array.hpp"

namespace ptycho {

class Propagator {
 public:
  /// Kernel for one dz step on a probe_n x probe_n window.
  explicit Propagator(const OpticsGrid& grid);

  /// psi <- P(psi).
  void apply(View2D<cplx> psi) const;

  /// psi <- P^H(psi) (adjoint).
  void apply_adjoint(View2D<cplx> psi) const;

  /// H / probe_n^2 in the FFT's spectral layout.
  [[nodiscard]] const CArray2D& spectral_kernel() const { return spectral_kernel_; }
  [[nodiscard]] const fft::Fft2D& fft() const { return fft_; }

 private:
  fft::Fft2D fft_;
  CArray2D spectral_kernel_;
};

}  // namespace ptycho
