// Tests for src/physics: optics constants, probe formation, propagator,
// the multislice operator and — critically — its adjoint (dot tests and
// finite-difference gradient checks, both object models, on the strict
// and on the fast tier), and the last-slice roundtrip elision they share.
#include <gtest/gtest.h>

#include <cmath>

#include "backend/kernels.hpp"
#include "common/random.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "physics/multislice.hpp"
#include "physics/scan.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

OpticsGrid test_grid(usize n = 32) {
  OpticsGrid grid;
  grid.probe_n = n;
  grid.dx_pm = 10.0;
  grid.dz_pm = 125.0;
  grid.wavelength_pm = electron_wavelength_pm(200.0);
  return grid;
}

ProbeParams test_probe_params() {
  ProbeParams p;
  p.aperture_mrad = 30.0;
  p.defocus_pm = 1000.0;
  return p;
}

FramedVolume random_volume(const Rect& frame, index_t slices, std::uint64_t seed,
                           real amplitude = real(0.1)) {
  FramedVolume v(slices, frame);
  Rng rng(seed);
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < frame.h; ++y) {
      for (index_t x = 0; x < frame.w; ++x) {
        v.data(s, y, x) = cplx(1, 0) + amplitude * cplx(static_cast<real>(rng.normal()),
                                                        static_cast<real>(rng.normal()));
      }
    }
  }
  return v;
}

CArray2D random_field(index_t n, std::uint64_t seed) {
  CArray2D f(n, n);
  Rng rng(seed);
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) {
      f(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  return f;
}

/// Switches the process to the fast tier for one test: the multislice
/// operator runs the same operation sequence through the FMA kernel
/// tables, which these checks must also cover.
struct FastTierScope {
  FastTierScope() { backend::set_precision(backend::Precision::kFast); }
  ~FastTierScope() { backend::set_precision(backend::Precision::kStrict); }
};

TEST(Optics, ElectronWavelength) {
  // Known values: 100 kV -> 3.701 pm, 200 kV -> 2.508 pm, 300 kV -> 1.969 pm.
  EXPECT_NEAR(electron_wavelength_pm(100.0), 3.701, 0.01);
  EXPECT_NEAR(electron_wavelength_pm(200.0), 2.508, 0.01);
  EXPECT_NEAR(electron_wavelength_pm(300.0), 1.969, 0.01);
}

TEST(Optics, GridFrequencies) {
  const OpticsGrid grid = test_grid(8);
  EXPECT_DOUBLE_EQ(grid.freq(0), 0.0);
  EXPECT_GT(grid.freq(1), 0.0);
  EXPECT_LT(grid.freq(7), 0.0);
  EXPECT_DOUBLE_EQ(grid.nyquist(), 0.05);
  EXPECT_DOUBLE_EQ(grid.window_pm(), 80.0);
}

TEST(Probe, NormalizedAndCentered) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  EXPECT_NEAR(probe.total_intensity(), 1.0, 1e-5);

  // Intensity centroid should be at the window center (probe is centered).
  double cy = 0.0;
  double cx = 0.0;
  for (index_t y = 0; y < probe.n(); ++y) {
    for (index_t x = 0; x < probe.n(); ++x) {
      const double w = std::norm(std::complex<double>(probe.field()(y, x)));
      cy += w * static_cast<double>(y);
      cx += w * static_cast<double>(x);
    }
  }
  EXPECT_NEAR(cy, static_cast<double>(probe.n()) / 2, 1.0);
  EXPECT_NEAR(cx, static_cast<double>(probe.n()) / 2, 1.0);
}

TEST(Probe, SupportRadiusGrowsWithDefocus) {
  const OpticsGrid grid = test_grid(64);
  ProbeParams focused = test_probe_params();
  focused.defocus_pm = 0.0;
  ProbeParams defocused = test_probe_params();
  defocused.defocus_pm = 2000.0;
  Probe p_focused(grid, focused);
  Probe p_defocused(grid, defocused);
  EXPECT_LT(p_focused.support_radius_px(0.9), p_defocused.support_radius_px(0.9));
  EXPECT_GT(p_defocused.support_radius_px(0.99), 0);
}

TEST(Probe, DegenerateApertures) {
  OpticsGrid grid = test_grid(8);
  ProbeParams params = test_probe_params();
  // A vanishing (but positive) aperture keeps only the DC bin: the probe
  // degenerates to a flat field but stays normalizable.
  params.aperture_mrad = 1e-9;
  EXPECT_NO_THROW(Probe(grid, params));
  // A negative aperture admits nothing at all and must be rejected.
  params.aperture_mrad = -1.0;
  EXPECT_THROW(Probe(grid, params), Error);
}

TEST(Propagator, PreservesBandlimitedEnergy) {
  const OpticsGrid grid = test_grid();
  Propagator prop(grid);
  // A field synthesized inside the band limit propagates unitarily.
  CArray2D psi(static_cast<index_t>(grid.probe_n), static_cast<index_t>(grid.probe_n));
  psi.fill(cplx(1, 0));  // DC only — well within the band limit
  const double before = norm_sq(psi.view());
  prop.apply(psi.view());
  EXPECT_NEAR(norm_sq(psi.view()), before, before * 1e-4);
}

TEST(Propagator, AdjointDotTest) {
  const OpticsGrid grid = test_grid(16);
  Propagator prop(grid);
  Rng rng(5);
  CArray2D a(16, 16);
  CArray2D b(16, 16);
  for (index_t y = 0; y < 16; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      b(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  CArray2D pa = a.clone();
  prop.apply(pa.view());
  CArray2D phb = b.clone();
  prop.apply_adjoint(phb.view());
  const auto lhs = dot(pa.view(), b.view());
  const auto rhs = dot(a.view(), phb.view());
  EXPECT_NEAR(lhs.real(), rhs.real(), 1e-3);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 1e-3);
}

TEST(Propagator, ZeroThicknessIsIdentity) {
  OpticsGrid grid = test_grid(16);
  grid.dz_pm = 0.0;
  Propagator prop(grid);
  Rng rng(6);
  CArray2D psi(16, 16);
  // Band-limited random field: synthesize in Fourier space inside 2/3
  // Nyquist, so the band-limit mask does not clip anything.
  fft::Fft2D plan(16, 16);
  for (index_t y = 0; y < 16; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      const double ky = grid.freq(static_cast<usize>(y));
      const double kx = grid.freq(static_cast<usize>(x));
      const bool inside = std::sqrt(kx * kx + ky * ky) <= (2.0 / 3.0) * grid.nyquist();
      psi(y, x) = inside ? cplx(static_cast<real>(rng.normal()),
                                static_cast<real>(rng.normal()))
                         : cplx{};
    }
  }
  plan.inverse(psi.view());
  CArray2D out = psi.clone();
  prop.apply(out.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(out.view(), psi.view()) / norm_sq(psi.view())), 1e-4);
}

TEST(Multislice, VacuumObjectGivesProbeFarField) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);

  FramedVolume vacuum = make_vacuum_volume(Rect{0, 0, n, n}, 3);
  MultisliceWorkspace ws(n, 3);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, vacuum, Rect{0, 0, n, n}, ws, mag.view());

  // Through vacuum the total far-field energy equals the probe energy
  // (unitary far-field transform; Parseval).
  double energy = 0.0;
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < n; ++x) {
      energy += static_cast<double>(mag(y, x)) * static_cast<double>(mag(y, x));
    }
  }
  EXPECT_NEAR(energy / probe.total_intensity(), 1.0, 1e-3);
}

TEST(Multislice, CostZeroWhenMeasurementsMatch) {
  const OpticsGrid grid = test_grid();
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};

  FramedVolume object = random_volume(window, 2, 11);
  MultisliceWorkspace ws(n, 2);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, object, window, ws, mag.view());
  EXPECT_NEAR(op.cost(probe, object, window, mag.view(), ws), 0.0, 1e-6);

  // Perturb the object: cost must become positive.
  object.data(1, n / 2, n / 2) += cplx(0.5f, 0.2f);
  EXPECT_GT(op.cost(probe, object, window, mag.view(), ws), 1e-6);
}

/// Adjoint dot test of the whole linear chain probe -> far field, for a
/// fixed object: A(p) = (1/n) F P T_L ... P T_1 p. Its adjoint comes from
/// cost_and_gradient's probe gradient: with all-zero measured magnitudes
/// the far-field seed is exactly 2 A(p0), so the probe gradient is
/// A^H (2 A p0). This covers the last-slice step, where the operator
/// elides the spectral roundtrip, which the propagator-only test cannot.
void check_chain_adjoint(double rel_bound) {
  const OpticsGrid grid = test_grid(16);
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const index_t slices = 3;
  const FramedVolume object = random_volume(window, slices, 31);
  MultisliceWorkspace ws(n, slices);
  const RArray2D zeros(n, n);

  const Probe p0(random_field(n, 32));
  FramedVolume grad(slices, window);
  CArray2D adj(n, n);  // A^H (2 A p0)
  View2D<cplx> adj_view = adj.view();
  (void)op.cost_and_gradient(p0, object, window, zeros.view(), grad, ws, &adj_view);
  op.forward(p0, object, window, ws);
  CArray2D b = ws.far.clone();
  scale(cplx(2, 0), b.view());

  const CArray2D a = random_field(n, 33);
  op.forward(Probe(a.clone()), object, window, ws);
  const auto lhs = dot(ws.far.view(), b.view());
  const auto rhs = dot(a.view(), adj.view());
  EXPECT_LT(std::abs(lhs - rhs), rel_bound * std::abs(lhs)) << "lhs " << lhs << " rhs " << rhs;
}

TEST(Multislice, AdjointDotTest) { check_chain_adjoint(1e-5); }

TEST(Multislice, AdjointDotTestElided) {
  FastTierScope fast;
  check_chain_adjoint(1e-5);
}

// Finite-difference check of the analytic gradient, for both object
// models. The Wirtinger gradient g satisfies, for a real perturbation e
// at one voxel: d cost / d eps ≈ Re(g); for imaginary: ≈ Im(g)... wait:
// f(V + eps) - f(V) ≈ Re(conj(g) * eps) with our convention g = 2 dF/dV*.
void check_gradient_matches_fd(ObjectModel model, double bound) {
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceConfig config;
  config.model = model;
  config.sigma = real(0.8);
  MultisliceOperator op(grid, config);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const index_t slices = 2;

  FramedVolume object = random_volume(window, slices, 21);
  // Synthetic "measurement": simulate from a different random object so
  // the residual is non-trivial.
  FramedVolume truth = random_volume(window, slices, 22);
  MultisliceWorkspace ws(n, slices);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, truth, window, ws, mag.view());

  FramedVolume grad(slices, window);
  const double f0 = op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);
  EXPECT_GT(f0, 0.0);

  // Probe a few voxels in each slice with central differences.
  const double eps = 1e-3;
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    const index_t s = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(slices)));
    const index_t y = 2 + static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(n - 4)));
    const index_t x = 2 + static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(n - 4)));
    const bool imaginary = (trial % 2) == 1;
    const cplx delta = imaginary ? cplx(0, static_cast<real>(eps))
                                 : cplx(static_cast<real>(eps), 0);

    FramedVolume plus = object.clone();
    plus.data(s, y, x) += delta;
    FramedVolume minus = object.clone();
    minus.data(s, y, x) -= delta;
    const double fp = op.cost(probe, plus, window, mag.view(), ws);
    const double fm = op.cost(probe, minus, window, mag.view(), ws);
    const double numeric = (fp - fm) / (2.0 * eps);

    const cplx g = grad.data(s, y, x);
    // With g = 2 dF/dV*: directional derivative along real e is Re(g),
    // along imaginary e is Im(g).
    const double analytic = imaginary ? static_cast<double>(g.imag())
                                      : static_cast<double>(g.real());
    const double scale = std::max({std::abs(numeric), std::abs(analytic), 1e-3});
    EXPECT_NEAR(numeric / scale, analytic / scale, bound)
        << "model=" << static_cast<int>(model) << " trial=" << trial << " s=" << s
        << " y=" << y << " x=" << x;
  }
}

class MultisliceGradient : public ::testing::TestWithParam<ObjectModel> {};

TEST_P(MultisliceGradient, MatchesFiniteDifference) { check_gradient_matches_fd(GetParam(), 0.15); }

TEST_P(MultisliceGradient, MatchesFiniteDifferenceElided) {
  FastTierScope fast;
  check_gradient_matches_fd(GetParam(), 0.15);
}

INSTANTIATE_TEST_SUITE_P(Models, MultisliceGradient,
                         ::testing::Values(ObjectModel::kTransmittance,
                                           ObjectModel::kPotential));

/// 2-D transforms one cost_and_gradient evaluation runs, read from the
/// fft2d_transforms_total counter.
std::uint64_t transforms_per_evaluation(index_t slices) {
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const FramedVolume object = random_volume(window, slices, 41);
  MultisliceWorkspace ws(n, slices);
  const RArray2D zeros(n, n);
  FramedVolume grad(slices, window);
  obs::Counter& transforms = obs::registry().counter("fft2d_transforms_total");
  obs::set_metrics_enabled(true);
  const std::uint64_t before = transforms.value();
  (void)op.cost_and_gradient(probe, object, window, zeros.view(), grad, ws);
  const std::uint64_t after = transforms.value();
  obs::set_metrics_enabled(false);
  return after - before;
}

// The last-slice roundtrip is elided on every tier: S - 1 propagator
// pairs plus the far-field forward, mirrored by the adjoint, is 4S - 2
// transforms; a tier that replayed the roundtrip would run 4S + 2.
TEST(Multislice, ElidesLastSliceRoundtripOnEveryTier) {
  for (const index_t slices : {index_t{1}, index_t{3}, index_t{8}}) {
    const auto expected = static_cast<std::uint64_t>(4 * slices - 2);
    EXPECT_EQ(transforms_per_evaluation(slices), expected) << "strict, slices=" << slices;
    FastTierScope fast;
    EXPECT_EQ(transforms_per_evaluation(slices), expected) << "fast, slices=" << slices;
  }
}

TEST(Multislice, RejectsZeroSlices) {
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect window{0, 0, n, n};
  const FramedVolume empty(0, window);
  MultisliceWorkspace ws(n, 0);
  EXPECT_THROW(op.forward(probe, empty, window, ws), Error);
}

TEST(Multislice, GradientSupportConfinedToWindow) {
  // The "special property" of Sec. III: the per-probe gradient vanishes
  // outside the probe window.
  const OpticsGrid grid = test_grid(16);
  Probe probe(grid, test_probe_params());
  MultisliceOperator op(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  const Rect field{0, 0, 3 * n, 3 * n};
  const Rect window{n, n, n, n};  // center of a larger field
  const index_t slices = 2;

  FramedVolume object = random_volume(field, slices, 31);
  FramedVolume truth = random_volume(field, slices, 32);
  MultisliceWorkspace ws(n, slices);
  RArray2D mag(n, n);
  op.simulate_magnitude(probe, truth, window, ws, mag.view());

  FramedVolume grad(slices, field);
  (void)op.cost_and_gradient(probe, object, window, mag.view(), grad, ws);

  double outside = 0.0;
  double inside = 0.0;
  for (index_t s = 0; s < slices; ++s) {
    for (index_t y = 0; y < field.h; ++y) {
      for (index_t x = 0; x < field.w; ++x) {
        const double mag_sq = std::norm(std::complex<double>(grad.data(s, y, x)));
        if (window.contains(field.y0 + y, field.x0 + x)) {
          inside += mag_sq;
        } else {
          outside += mag_sq;
        }
      }
    }
  }
  EXPECT_GT(inside, 0.0);
  EXPECT_EQ(outside, 0.0);  // gradient code writes only the window
}

TEST(Scan, RasterOrderAndField) {
  ScanParams params;
  params.rows = 3;
  params.cols = 3;
  params.step_px = 4;
  params.margin_px = 2;
  params.probe_n = 8;
  ScanPattern scan(params);
  ASSERT_EQ(scan.count(), 9);
  // Fig. 1(b): raster order, row-major.
  EXPECT_EQ(scan[0].window, (Rect{2, 2, 8, 8}));
  EXPECT_EQ(scan[1].window, (Rect{2, 6, 8, 8}));
  EXPECT_EQ(scan[3].window, (Rect{6, 2, 8, 8}));
  EXPECT_EQ(scan[8].window, (Rect{10, 10, 8, 8}));
  EXPECT_EQ(scan.field(), (Rect{0, 0, 20, 20}));
  for (const ProbeLocation& loc : scan.locations()) {
    EXPECT_TRUE(scan.field().contains(loc.window));
  }
  EXPECT_DOUBLE_EQ(scan.overlap_ratio(), 0.5);
}

TEST(Scan, OverlapRatioClamped) {
  ScanParams params;
  params.rows = 2;
  params.cols = 2;
  params.step_px = 16;
  params.probe_n = 8;  // step > window: no overlap
  ScanPattern scan(params);
  EXPECT_DOUBLE_EQ(scan.overlap_ratio(), 0.0);
}

}  // namespace
}  // namespace ptycho
