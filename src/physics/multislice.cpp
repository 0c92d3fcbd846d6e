#include "physics/multislice.hpp"

#include <cmath>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptycho {

MultisliceWorkspace::MultisliceWorkspace(index_t probe_n, index_t slices)
    : psi(probe_n, probe_n), far(probe_n, probe_n), grad(probe_n, probe_n),
      scratch(probe_n, probe_n) {
  psi_in.reserve(static_cast<usize>(slices));
  trans.reserve(static_cast<usize>(slices));
  for (index_t s = 0; s < slices; ++s) {
    psi_in.emplace_back(probe_n, probe_n);
    trans.emplace_back(probe_n, probe_n);
  }
}

WorkspacePool::WorkspacePool(index_t probe_n, index_t slices, int slots,
                             bool cache_transmittance) {
  PTYCHO_REQUIRE(slots >= 1, "workspace pool needs at least one slot");
  workspaces_.reserve(static_cast<usize>(slots));
  for (int s = 0; s < slots; ++s) {
    workspaces_.emplace_back(probe_n, slices);
    workspaces_.back().cache_transmittance = cache_transmittance;
  }
}

MultisliceOperator::MultisliceOperator(const OpticsGrid& grid, MultisliceConfig config)
    : grid_(grid), config_(config), propagator_(grid) {}

void MultisliceOperator::compute_transmittance(const FramedVolume& volume, const Rect& window,
                                               MultisliceWorkspace& ws) const {
  const index_t slices = volume.slices();
  PTYCHO_CHECK(ws.trans.size() == static_cast<usize>(slices),
               "workspace slice count mismatch");
  // kPotential pays exp/cos/sin per voxel; skip the rebuild when the cached
  // tile is provably current (same revision token, same window).
  const bool cacheable = config_.model == ObjectModel::kPotential && ws.cache_transmittance;
  if (cacheable && ws.trans_revision == volume.revision && ws.trans_window == window) {
    if (obs::metrics_enabled()) {
      static obs::Counter& hits = obs::registry().counter("workspace_cache_hits_total");
      hits.add(1);
    }
    return;
  }
  if (cacheable && obs::metrics_enabled()) {
    static obs::Counter& misses = obs::registry().counter("workspace_cache_misses_total");
    misses.add(1);
  }
  for (index_t s = 0; s < slices; ++s) {
    View2D<const cplx> v = volume.window(s, window);
    View2D<cplx> t = ws.trans[static_cast<usize>(s)].view();
    if (config_.model == ObjectModel::kTransmittance) {
      copy(v, t);
      continue;
    }
    // t = exp(i * sigma * V): exp(i s (a+bi)) = exp(-s b) * (cos(sa) + i sin(sa))
    const real sigma = config_.sigma;
    for (index_t y = 0; y < v.rows(); ++y) {
      const cplx* vr = v.row(y);
      cplx* tr = t.row(y);
      for (index_t x = 0; x < v.cols(); ++x) {
        const real amp = std::exp(-sigma * vr[x].imag());
        const real phase = sigma * vr[x].real();
        tr[x] = cplx(amp * std::cos(phase), amp * std::sin(phase));
      }
    }
  }
  if (cacheable) {
    ws.trans_revision = volume.revision;
    ws.trans_window = window;
  }
}

void MultisliceOperator::forward(const Probe& probe, const FramedVolume& volume,
                                 const Rect& window, MultisliceWorkspace& ws) const {
  const auto n = static_cast<index_t>(grid_.probe_n);
  PTYCHO_REQUIRE(window.h == n && window.w == n, "probe window must be probe_n x probe_n");
  PTYCHO_REQUIRE(volume.frame.contains(window), "probe window must lie inside the tile frame");
  const index_t slices = volume.slices();
  PTYCHO_REQUIRE(slices >= 1, "multislice volume needs at least one slice");

  compute_transmittance(volume, window, ws);

  copy(probe.field().view(), ws.psi.view());
  for (index_t s = 0; s < slices; ++s) {
    // Record the wavefield entering the slice (needed for the adjoint).
    copy(ws.psi.view(), ws.psi_in[static_cast<usize>(s)].view());
    multiply_inplace(ws.trans[static_cast<usize>(s)].view(), ws.psi.view());
    if (s + 1 < slices) propagator_.apply(ws.psi.view());
  }
  // The last slice's propagation would end with an inverse FFT that the
  // far-field forward immediately undoes; F(F^-1(x)) == x, so the
  // roundtrip is elided and the far field is formed directly as
  //   far = (1/n) * H .* F(T_last .* psi) = n * H_s .* F(T_last .* psi)
  // with H_s = H / n^2 the propagator's spectral kernel. The multiply runs
  // on the FFT's tile and the exact power-of-two n rides in the permuting
  // transpose that writes ws.far in natural order. The 1/n makes the
  // far-field transform unitary: |far|^2 integrates to the exit-wave
  // energy (Parseval), so measurement magnitudes and gradients are
  // independent of the window size.
  propagator_.fft().forward_multiply(ws.psi.view(), propagator_.spectral_kernel().view(),
                                     static_cast<real>(grid_.probe_n), ws.far.view());
}

void MultisliceOperator::simulate_magnitude(const Probe& probe, const FramedVolume& volume,
                                            const Rect& window, MultisliceWorkspace& ws,
                                            View2D<real> out) const {
  forward(probe, volume, window, ws);
  for (index_t y = 0; y < out.rows(); ++y) {
    real* o = out.row(y);
    const cplx* f = ws.far.row(y);
    for (index_t x = 0; x < out.cols(); ++x) o[x] = std::abs(f[x]);
  }
}

double MultisliceOperator::cost_from_far(View2D<const real> y_mag,
                                         const MultisliceWorkspace& ws) const {
  double acc = 0.0;
  for (index_t y = 0; y < y_mag.rows(); ++y) {
    const real* ym = y_mag.row(y);
    const cplx* f = ws.far.row(y);
    for (index_t x = 0; x < y_mag.cols(); ++x) {
      const double diff = static_cast<double>(std::abs(std::complex<double>(f[x]))) -
                          static_cast<double>(ym[x]);
      acc += diff * diff;
    }
  }
  return acc;
}

double MultisliceOperator::cost(const Probe& probe, const FramedVolume& volume,
                                const Rect& window, View2D<const real> y_mag,
                                MultisliceWorkspace& ws) const {
  forward(probe, volume, window, ws);
  return cost_from_far(y_mag, ws);
}

double MultisliceOperator::cost_and_gradient(const Probe& probe, const FramedVolume& volume,
                                             const Rect& window, View2D<const real> y_mag,
                                             FramedVolume& grad_out, MultisliceWorkspace& ws,
                                             View2D<cplx>* probe_grad_out) const {
  PTYCHO_REQUIRE(grad_out.frame.contains(window), "gradient frame must contain the window");
  PTYCHO_REQUIRE(grad_out.slices() == volume.slices(), "gradient slice count mismatch");

  forward(probe, volume, window, ws);
  const double cost_value = cost_from_far(y_mag, ws);

  // Seed: g_far = 2 (|Psi| - |y|) * Psi / |Psi|  (Wirtinger gradient of f).
  const auto n = static_cast<index_t>(grid_.probe_n);
  for (index_t y = 0; y < n; ++y) {
    const real* ym = y_mag.row(y);
    const cplx* f = ws.far.row(y);
    cplx* g = ws.grad.row(y);
    for (index_t x = 0; x < n; ++x) {
      const real mag = std::abs(f[x]);
      if (mag > real(1e-20)) {
        g[x] = real(2) * (mag - ym[x]) / mag * f[x];
      } else {
        // At a zero of Psi the cost is not differentiable; subgradient 0
        // keeps the update bounded (same convention as PIE-family codes).
        g[x] = cplx{};
      }
    }
  }

  // Back through the elided far field, the mirror of forward(): the
  // adjoint of x -> n * H_s .* F(x) is g -> F^H(n * conj(H_s) .* g)
  // = n * F^-1(conj(H) .* g), since F^H = n^2 * F^-1 on an n x n window.
  // The seed enters the tile through the permuting transpose, carrying
  // the exact power-of-two factor n.
  const index_t slices = volume.slices();
  const backend::Kernels& kern = backend::kernels();
  propagator_.fft().multiply_inverse(propagator_.spectral_kernel().view(), ws.grad.view(),
                                     /*conj_kernel=*/true, static_cast<real>(grid_.probe_n));

  const real sigma = config_.sigma;
  for (index_t s = slices - 1; s >= 0; --s) {
    // Back through the propagator; at the last slice conj(H) was already
    // applied spectrally above.
    if (s + 1 < slices) propagator_.apply_adjoint(ws.grad.view());
    const auto us = static_cast<usize>(s);
    View2D<const cplx> psi_in = ws.psi_in[us].view();
    View2D<const cplx> trans = ws.trans[us].view();
    View2D<cplx> g_slice = grad_out.window(s, window);
    // gt = conj(psi_in) .* g ; gV = gt (transmittance) or conj(i sigma t) .* gt.
    for (index_t y = 0; y < n; ++y) {
      const cplx* pi_row = psi_in.row(y);
      const cplx* t_row = trans.row(y);
      cplx* g_row = ws.grad.row(y);
      cplx* out_row = g_slice.row(y);
      const auto cols = static_cast<usize>(n);
      if (config_.model == ObjectModel::kTransmittance) {
        kern.cmul_conj_acc_lanes(out_row, g_row, pi_row, cols);
        // Continue the chain: g_psi = conj(t) .* g.
        kern.cmul_conj_lanes(g_row, g_row, t_row, cols);
      } else {
        kern.potential_backprop_lanes(out_row, g_row, pi_row, t_row, sigma, cols);
      }
    }
  }
  // After the loop ws.grad holds the gradient with respect to psi_0 — the
  // probe wavefield itself.
  if (probe_grad_out != nullptr) {
    add(ws.grad.view(), *probe_grad_out);
  }
  return cost_value;
}

}  // namespace ptycho
