// O(n²) reference DFT used to validate the fast transforms in tests.
#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "common/types.hpp"

namespace ptycho::fft {

/// Direct DFT in double precision, any length. `sign = -1` matches
/// Plan1D::forward (unnormalized); `sign = +1` is the unnormalized inverse
/// kernel.
[[nodiscard]] inline std::vector<cplx> reference_dft(const std::vector<cplx>& input, int sign) {
  const usize n = input.size();
  std::vector<cplx> out(n, cplx{});
  const double base = sign * 2.0 * 3.14159265358979323846 / static_cast<double>(n);
  for (usize k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (usize j = 0; j < n; ++j) {
      const double angle = base * static_cast<double>((j * k) % n);
      acc += std::complex<double>(input[j]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = cplx(static_cast<real>(acc.real()), static_cast<real>(acc.imag()));
  }
  return out;
}

}  // namespace ptycho::fft
