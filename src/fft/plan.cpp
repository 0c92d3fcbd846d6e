#include "fft/plan.hpp"

#include <cmath>
#include <utility>

#include "backend/kernels.hpp"
#include "common/error.hpp"

namespace ptycho::fft {

namespace {
cplx unit_root(double numerator, double denominator) {
  const double angle = -2.0 * 3.14159265358979323846 * numerator / denominator;
  return cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
}

// The multiply-free radix-2 stage at half-length 1 (twiddle exp(0)): plain
// add/sub pairs, not a unit-twiddle cmul, whose 0*x terms would flip signed
// zeros. The loop over the contiguous lane dimension auto-vectorizes.
void radix2_pairs(cplx* data, usize n, usize stride, usize count) {
  for (usize base = 0; base < n; base += 2) {
    cplx* a = data + base * stride;
    cplx* b = a + stride;
    for (usize lane = 0; lane < count; ++lane) {
      const cplx u = a[lane];
      const cplx t = b[lane];
      a[lane] = u + t;
      b[lane] = u - t;
    }
  }
}
}  // namespace

Plan1D::Plan1D(usize n) : n_(n) {
  PTYCHO_REQUIRE(is_pow2(n), "FFT size must be a power of two, got " << n);
  usize bits = 0;
  while ((usize(1) << bits) < n) ++bits;
  bitrev_.resize(n);
  for (usize i = 0; i < n; ++i) {
    usize r = 0;
    for (usize b = 0; b < bits; ++b) {
      if ((i >> b) & 1u) r |= usize(1) << (bits - 1 - b);
    }
    bitrev_[i] = r;
  }
  odd_log2_ = (bits % 2) != 0;
  for (usize h = odd_log2_ ? 2 : 1; 4 * h <= n; h *= 4) {
    stages_.push_back({h, tw_.size()});
    tw_.resize(tw_.size() + 3 * h);
    cplx* w1 = tw_.data() + stages_.back().offset;
    cplx* w2 = w1 + h;
    cplx* w3 = w2 + h;
    for (usize k = 0; k < h; ++k) {
      const auto dk = static_cast<double>(k);
      const auto d4h = static_cast<double>(4 * h);
      w1[k] = unit_root(2.0 * dk, d4h);
      w2[k] = unit_root(dk, d4h);
      w3[k] = unit_root(3.0 * dk, d4h);
    }
  }
}

void Plan1D::forward_dif(cplx* data, usize stride, usize count) const {
  PTYCHO_REQUIRE(count >= 1 && stride >= count, "strided batch: need stride >= count >= 1");
  const backend::Kernels& kern = backend::kernels();
  // Largest butterflies first: each (base, k) pair is one shared-twiddle
  // butterfly across the batch, touching four lane rows per dispatched call.
  for (auto st = stages_.rbegin(); st != stages_.rend(); ++st) {
    const usize h = st->h;
    const cplx* tw1 = tw_.data() + st->offset;
    const cplx* tw2 = tw1 + h;
    const cplx* tw3 = tw2 + h;
    for (usize base = 0; base < n_; base += 4 * h) {
      for (usize k = 0; k < h; ++k) {
        cplx* p0 = data + (base + k) * stride;
        kern.butterfly4_dif_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride,
                                  tw1[k], tw2[k], tw3[k], /*conj_rot=*/false, count);
      }
    }
  }
  if (odd_log2_) radix2_pairs(data, n_, stride, count);
}

void Plan1D::inverse_dit(cplx* data, usize stride, usize count) const {
  PTYCHO_REQUIRE(count >= 1 && stride >= count, "strided batch: need stride >= count >= 1");
  const backend::Kernels& kern = backend::kernels();
  if (odd_log2_) radix2_pairs(data, n_, stride, count);
  for (const Stage& st : stages_) {
    const usize h = st.h;
    const cplx* tw1 = tw_.data() + st.offset;
    const cplx* tw2 = tw1 + h;
    const cplx* tw3 = tw2 + h;
    for (usize base = 0; base < n_; base += 4 * h) {
      for (usize k = 0; k < h; ++k) {
        cplx* p0 = data + (base + k) * stride;
        kern.butterfly4_lanes(p0, p0 + h * stride, p0 + 2 * h * stride, p0 + 3 * h * stride,
                              std::conj(tw1[k]), std::conj(tw2[k]), std::conj(tw3[k]),
                              /*conj_rot=*/true, count);
      }
    }
  }
}

void Plan1D::bit_reverse(cplx* data) const {
  for (usize i = 0; i < n_; ++i) {
    const usize j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
}

void Plan1D::forward(cplx* data) const {
  forward_dif(data, 1, 1);
  bit_reverse(data);
}

void Plan1D::inverse(cplx* data) const {
  bit_reverse(data);
  inverse_dit(data, 1, 1);
  const real inv_n = real(1) / static_cast<real>(n_);
  for (usize i = 0; i < n_; ++i) data[i] *= inv_n;
}

}  // namespace ptycho::fft
