// Additional physics/FFT property tests: 2-D transforms on square, flat and
// degenerate power-of-two extents, propagator composition, anisotropic
// scans, and memory-model knobs.
#include <gtest/gtest.h>

#include "ptycho.hpp"

#include <cmath>

#include "common/random.hpp"
#include "core/memory_model.hpp"
#include "fft/fft2d.hpp"
#include "physics/propagator.hpp"
#include "physics/scan.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

CArray2D random_field(index_t rows, index_t cols, std::uint64_t seed) {
  CArray2D a(rows, cols);
  Rng rng(seed);
  for (index_t y = 0; y < rows; ++y) {
    for (index_t x = 0; x < cols; ++x) {
      a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  return a;
}

// 2-D roundtrip across power-of-two extents of both log2 parities,
// including single-row and single-column fields.
class Fft2DSizes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(Fft2DSizes, RoundtripAndParseval) {
  const auto [rows, cols] = GetParam();
  fft::Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D original = random_field(rows, cols, 1000 + static_cast<std::uint64_t>(rows));
  CArray2D work = original.clone();

  plan.forward(work.view());
  const double freq_energy = norm_sq(work.view());
  const double time_energy = norm_sq(original.view());
  EXPECT_NEAR(freq_energy / (static_cast<double>(rows * cols) * time_energy), 1.0, 1e-3);

  plan.inverse(work.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(work.view(), original.view()) / time_energy), 5e-5);
}

INSTANTIATE_TEST_SUITE_P(Pow2, Fft2DSizes,
                         ::testing::Values(std::pair<index_t, index_t>{4, 8},
                                           std::pair<index_t, index_t>{8, 16},
                                           std::pair<index_t, index_t>{32, 32},
                                           std::pair<index_t, index_t>{32, 64},
                                           std::pair<index_t, index_t>{1, 16},
                                           std::pair<index_t, index_t>{16, 1}));

TEST(Propagator, ComposesOverThickness) {
  // Two dz steps equal one 2*dz step (free-space transfer functions
  // multiply) on band-limited input.
  OpticsGrid grid1;
  grid1.probe_n = 32;
  grid1.dz_pm = 125.0;
  OpticsGrid grid2 = grid1;
  grid2.dz_pm = 250.0;
  Propagator step(grid1);
  Propagator two_steps(grid2);

  // Band-limited random field.
  CArray2D psi(32, 32);
  fft::Fft2D plan(32, 32);
  Rng rng(4);
  for (index_t y = 0; y < 32; ++y) {
    for (index_t x = 0; x < 32; ++x) {
      const double ky = grid1.freq(static_cast<usize>(y));
      const double kx = grid1.freq(static_cast<usize>(x));
      const bool inside = std::sqrt(kx * kx + ky * ky) <= 0.6 * (2.0 / 3.0) * grid1.nyquist();
      psi(y, x) = inside ? cplx(static_cast<real>(rng.normal()),
                                static_cast<real>(rng.normal()))
                         : cplx{};
    }
  }
  plan.inverse(psi.view());

  CArray2D twice = psi.clone();
  step.apply(twice.view());
  step.apply(twice.view());
  CArray2D once = psi.clone();
  two_steps.apply(once.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(twice.view(), once.view()) / norm_sq(once.view())), 1e-4);
}

TEST(Propagator, InverseUndoesPropagation) {
  // P^H is the exact inverse of P on the band-limited subspace (the
  // transfer function is unimodular there).
  OpticsGrid grid;
  grid.probe_n = 16;
  Propagator prop(grid);
  CArray2D psi(16, 16);
  fft::Fft2D plan(16, 16);
  Rng rng(5);
  for (index_t y = 0; y < 16; ++y) {
    for (index_t x = 0; x < 16; ++x) {
      const double ky = grid.freq(static_cast<usize>(y));
      const double kx = grid.freq(static_cast<usize>(x));
      const bool inside = std::sqrt(kx * kx + ky * ky) <= 0.6 * (2.0 / 3.0) * grid.nyquist();
      psi(y, x) = inside ? cplx(static_cast<real>(rng.normal()),
                                static_cast<real>(rng.normal()))
                         : cplx{};
    }
  }
  plan.inverse(psi.view());
  CArray2D roundtrip = psi.clone();
  prop.apply(roundtrip.view());
  prop.apply_adjoint(roundtrip.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(roundtrip.view(), psi.view()) / norm_sq(psi.view())), 1e-4);
}

TEST(Scan, AnisotropicSteps) {
  ScanParams params;
  params.rows = 3;
  params.cols = 4;
  params.step_px = 6;     // x
  params.step_y_px = 10;  // y
  params.probe_n = 12;
  const ScanPattern scan(params);
  EXPECT_EQ(scan[0].window, (Rect{0, 0, 12, 12}));
  EXPECT_EQ(scan[1].window.x0, 6);
  EXPECT_EQ(scan[4].window.y0, 10);  // second row
  EXPECT_EQ(scan.field().h, 2 * 10 + 12);
  EXPECT_EQ(scan.field().w, 3 * 6 + 12);
}

TEST(MemoryModel, EffectiveWindowKnob) {
  // Larger effective windows -> larger halos -> more memory per rank.
  const PaperDataset dataset = paper_large_dataset();
  PaperMemoryConfig small_cfg;
  small_cfg.eff_window_px = 80;
  PaperMemoryConfig big_cfg;
  big_cfg.eff_window_px = 160;

  const ScanPattern scan_small = make_paper_scan(dataset, small_cfg.eff_window_px);
  const ScanPattern scan_big = make_paper_scan(dataset, big_cfg.eff_window_px);
  const Partition part_small =
      make_paper_partition(scan_small, 198, Strategy::kGradientDecomposition);
  const Partition part_big =
      make_paper_partition(scan_big, 198, Strategy::kGradientDecomposition);
  const double gb_small = estimate_paper_memory(part_small, dataset, small_cfg).mean_gb();
  const double gb_big = estimate_paper_memory(part_big, dataset, big_cfg).mean_gb();
  EXPECT_LT(gb_small, gb_big);
}

TEST(MemoryModel, TileBufferKnobScalesLinearly) {
  const PaperDataset dataset = paper_large_dataset();
  PaperMemoryConfig cfg6;
  cfg6.tile_buffers = 6;
  PaperMemoryConfig cfg3 = cfg6;
  cfg3.tile_buffers = 3;
  const ScanPattern scan = make_paper_scan(dataset, cfg6.eff_window_px);
  const Partition partition = make_paper_partition(scan, 54, Strategy::kGradientDecomposition);
  const double gb6 = estimate_paper_memory(partition, dataset, cfg6).mean_gb();
  const double gb3 = estimate_paper_memory(partition, dataset, cfg3).mean_gb();
  // Tile buffers dominate at this scale; halving them should nearly halve
  // the estimate (measurements/workspace are the remainder).
  EXPECT_GT(gb6 / gb3, 1.6);
  EXPECT_LT(gb6 / gb3, 2.0);
}

TEST(Umbrella, HeaderCompiles) {
  // The umbrella header must pull in a coherent API surface. (This test
  // exists so an include regression fails the suite, not a user build.)
  SUCCEED();
}

}  // namespace
}  // namespace ptycho
