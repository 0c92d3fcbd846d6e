// Unit/property tests for src/fft: fast transforms vs the O(n^2)
// reference, roundtrips, adjoint identities, shifts, the DIF/DIT lane
// passes and their bit-reversed spectra, the spectral-layout entry points
// (convolve and the fused far-field pair), strided window views, pinned
// output bits, power-of-two-only plans, and allocation-freedom of the
// shift helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "backend/kernels.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/fft2d.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "tensor/ops.hpp"

// Global allocation counter: replaces the default operator new/delete for
// this test binary so tests can assert that a code path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC flags free() on memory from (our replaced) operator new as a
// mismatch; the pairing is intentional — both sides of it live right here.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace ptycho::fft {
namespace {

std::vector<cplx> random_signal(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) {
    v = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  return x;
}

double rel_error(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double num = 0.0;
  double den = 0.0;
  for (usize i = 0; i < a.size(); ++i) {
    num += std::norm(std::complex<double>(a[i]) - std::complex<double>(b[i]));
    den += std::norm(std::complex<double>(b[i]));
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

TEST(FftHelpers, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
}

TEST(FftHelpers, FftFreqOrdering) {
  EXPECT_DOUBLE_EQ(fft_freq(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(fft_freq(1, 8), 0.125);
  EXPECT_DOUBLE_EQ(fft_freq(4, 8), -0.5);
  EXPECT_DOUBLE_EQ(fft_freq(7, 8), -0.125);
  EXPECT_DOUBLE_EQ(fft_freq(2, 5), 0.4);
  EXPECT_DOUBLE_EQ(fft_freq(3, 5), -0.4);
}

// Property sweep: the natural-order transform matches the direct DFT on
// every power of two up to 512, both log2 parities (the odd ones add the
// multiply-free radix-2 stage).
class Plan1DMatchesReference : public ::testing::TestWithParam<usize> {};

TEST_P(Plan1DMatchesReference, Forward) {
  const usize n = GetParam();
  Plan1D plan(n);
  std::vector<cplx> x = random_signal(n, 100 + n);
  const std::vector<cplx> expected = reference_dft(x, -1);
  plan.forward(x.data());
  EXPECT_LT(rel_error(x, expected), 2e-5) << "n=" << n;
}

TEST_P(Plan1DMatchesReference, InverseRoundtrip) {
  const usize n = GetParam();
  Plan1D plan(n);
  const std::vector<cplx> original = random_signal(n, 200 + n);
  std::vector<cplx> x = original;
  plan.forward(x.data());
  plan.inverse(x.data());
  EXPECT_LT(rel_error(x, original), 2e-5) << "n=" << n;
}

TEST_P(Plan1DMatchesReference, ParsevalEnergy) {
  const usize n = GetParam();
  Plan1D plan(n);
  std::vector<cplx> x = random_signal(n, 300 + n);
  double time_energy = 0.0;
  for (const cplx& v : x) time_energy += std::norm(std::complex<double>(v));
  plan.forward(x.data());
  double freq_energy = 0.0;
  for (const cplx& v : x) freq_energy += std::norm(std::complex<double>(v));
  EXPECT_NEAR(freq_energy / static_cast<double>(n) / time_energy, 1.0, 1e-4) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Plan1DMatchesReference,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512));

TEST(Plan1D, ImpulseGivesFlatSpectrum) {
  Plan1D plan(16);
  std::vector<cplx> x(16, cplx{});
  x[0] = cplx(1, 0);
  plan.forward(x.data());
  for (const cplx& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5f);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5f);
  }
}

TEST(Plan1D, LinearityProperty) {
  const usize n = 32;
  Plan1D plan(n);
  std::vector<cplx> a = random_signal(n, 1);
  std::vector<cplx> b = random_signal(n, 2);
  const cplx alpha(0.7f, -0.3f);
  std::vector<cplx> combo(n);
  for (usize i = 0; i < n; ++i) combo[i] = alpha * a[i] + b[i];
  plan.forward(a.data());
  plan.forward(b.data());
  plan.forward(combo.data());
  std::vector<cplx> expected(n);
  for (usize i = 0; i < n; ++i) expected[i] = alpha * a[i] + b[i];
  EXPECT_LT(rel_error(combo, expected), 2e-5);
}

TEST(Fft2D, MatchesSeparableReference) {
  const usize rows = 8;
  const usize cols = 16;
  Fft2D plan(rows, cols);
  CArray2D field(static_cast<index_t>(rows), static_cast<index_t>(cols));
  Rng rng(42);
  for (index_t y = 0; y < field.rows(); ++y) {
    for (index_t x = 0; x < field.cols(); ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Reference: rows then columns with the direct DFT.
  std::vector<std::vector<cplx>> ref(rows, std::vector<cplx>(cols));
  for (usize y = 0; y < rows; ++y) {
    std::vector<cplx> row(cols);
    for (usize x = 0; x < cols; ++x) row[x] = field(static_cast<index_t>(y), static_cast<index_t>(x));
    ref[y] = reference_dft(row, -1);
  }
  for (usize x = 0; x < cols; ++x) {
    std::vector<cplx> col(rows);
    for (usize y = 0; y < rows; ++y) col[y] = ref[y][x];
    col = reference_dft(col, -1);
    for (usize y = 0; y < rows; ++y) ref[y][x] = col[y];
  }
  plan.forward(field.view());
  double err = 0.0;
  double den = 0.0;
  for (usize y = 0; y < rows; ++y) {
    for (usize x = 0; x < cols; ++x) {
      err += std::norm(std::complex<double>(field(static_cast<index_t>(y), static_cast<index_t>(x))) -
                       std::complex<double>(ref[y][x]));
      den += std::norm(std::complex<double>(ref[y][x]));
    }
  }
  EXPECT_LT(std::sqrt(err / den), 2e-5);
}

TEST(Fft2D, RoundtripAndAdjointIdentities) {
  const usize n = 16;
  Fft2D plan(n, n);
  CArray2D a(static_cast<index_t>(n), static_cast<index_t>(n));
  CArray2D b(static_cast<index_t>(n), static_cast<index_t>(n));
  Rng rng(7);
  for (index_t y = 0; y < a.rows(); ++y) {
    for (index_t x = 0; x < a.cols(); ++x) {
      a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      b(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Roundtrip.
  CArray2D ra = a.clone();
  plan.forward(ra.view());
  plan.inverse(ra.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(ra.view(), a.view()) / norm_sq(a.view())), 2e-5);

  // Adjoint (dot) test: <F a, b> == <a, F^H b>.
  CArray2D fa = a.clone();
  plan.forward(fa.view());
  CArray2D fhb = b.clone();
  plan.adjoint_forward(fhb.view());
  const auto lhs = dot(fa.view(), b.view());
  const auto rhs = dot(a.view(), fhb.view());
  EXPECT_NEAR(lhs.real(), rhs.real(), 2e-2);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 2e-2);
}

TEST(Fft2D, ShiftRoundtripEvenAndOdd) {
  for (const index_t n : {8, 9}) {
    CArray2D a(n, n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) {
        a(y, x) = cplx(static_cast<real>(rng.normal()), 0);
      }
    }
    CArray2D shifted = a.clone();
    fftshift(shifted.view());
    ifftshift(shifted.view());
    EXPECT_DOUBLE_EQ(diff_norm_sq(shifted.view(), a.view()), 0.0) << "n=" << n;
  }
}

TEST(Fft2D, FftshiftMovesZeroFrequencyToCenter) {
  const index_t n = 8;
  CArray2D a(n, n);
  a(0, 0) = cplx(1, 0);  // DC bin
  fftshift(a.view());
  EXPECT_EQ(a(4, 4), cplx(1, 0));
}

TEST(Fft2D, ShiftsAreAllocationFree) {
  for (const index_t n : {8, 16, 64}) {  // even sizes, per the contract
    CArray2D a(n, n);
    Rng rng(static_cast<std::uint64_t>(n));
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) a(y, x) = cplx(static_cast<real>(rng.normal()), 0);
    }
    const std::uint64_t before = g_heap_allocs.load();
    fftshift(a.view());
    ifftshift(a.view());
    EXPECT_EQ(g_heap_allocs.load(), before) << "n=" << n;
  }
}

TEST(Fft2D, ShiftMatchesRolledCopyOddAndEven) {
  // The in-place cycle implementation must equal the old copy-based roll:
  // fftshift moves (0,0) to (r/2, c/2) for any parity combination.
  for (const index_t rows : {5, 6}) {
    for (const index_t cols : {7, 8}) {
      CArray2D a(rows, cols);
      Rng rng(static_cast<std::uint64_t>(rows * 100 + cols));
      for (index_t y = 0; y < rows; ++y) {
        for (index_t x = 0; x < cols; ++x) {
          a(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
        }
      }
      CArray2D shifted = a.clone();
      fftshift(shifted.view());
      for (index_t y = 0; y < rows; ++y) {
        for (index_t x = 0; x < cols; ++x) {
          EXPECT_EQ(shifted((y + rows / 2) % rows, (x + cols / 2) % cols), a(y, x))
              << rows << "x" << cols << " @" << y << "," << x;
        }
      }
      CArray2D round = a.clone();
      fftshift(round.view());
      ifftshift(round.view());
      EXPECT_DOUBLE_EQ(diff_norm_sq(round.view(), a.view()), 0.0);
    }
  }
}

// The batched strided pair must agree bitwise with the contiguous
// natural-order transform lane by lane: the DIF leaves frequency k at
// rev(k), and the DIT reads it from there.
class BlockedColumns : public ::testing::TestWithParam<usize> {};

TEST_P(BlockedColumns, BatchedPlanMatchesScalarPerLane) {
  const usize n = GetParam();
  Plan1D plan(n);
  const usize count = 13;  // deliberately not the block size or a pow2
  std::vector<cplx> batched(n * count);
  Rng rng(n * 7 + 1);
  for (auto& v : batched) {
    v = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
  }
  // Scalar reference: gather each lane, transform, compare.
  std::vector<std::vector<cplx>> lanes(count, std::vector<cplx>(n));
  for (usize lane = 0; lane < count; ++lane) {
    for (usize j = 0; j < n; ++j) lanes[lane][j] = batched[j * count + lane];
    plan.forward(lanes[lane].data());
  }
  plan.forward_dif(batched.data(), count, count);
  int mismatches = 0;
  for (usize lane = 0; lane < count; ++lane) {
    for (usize k = 0; k < n; ++k) {
      const cplx& got = batched[plan.bitrev(k) * count + lane];
      if (std::memcmp(&got, &lanes[lane][k], sizeof(cplx)) != 0) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "forward n=" << n;
  // The DIT takes the bit-reversed spectrum straight back, unnormalized.
  for (usize lane = 0; lane < count; ++lane) plan.inverse(lanes[lane].data());
  plan.inverse_dit(batched.data(), count, count);
  const real nn = static_cast<real>(n);  // undoes inverse's 1/n exactly
  for (usize lane = 0; lane < count; ++lane) {
    for (usize j = 0; j < n; ++j) {
      const cplx want = lanes[lane][j] * nn;
      if (std::memcmp(&batched[j * count + lane], &want, sizeof(cplx)) != 0) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "inverse n=" << n;
}

TEST_P(BlockedColumns, Fft2DMatchesNaivePerColumnPath) {
  const usize n = GetParam();
  Fft2D plan(n, n);
  const auto ni = static_cast<index_t>(n);
  CArray2D field(ni, ni);
  Rng rng(n * 31 + 5);
  for (index_t y = 0; y < ni; ++y) {
    for (index_t x = 0; x < ni; ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  // Naive reference: scalar Plan1D over every row, then every gathered column.
  Plan1D plan1(n);
  CArray2D ref = field.clone();
  for (index_t y = 0; y < ni; ++y) plan1.forward(ref.row(y));
  std::vector<cplx> column(n);
  for (index_t x = 0; x < ni; ++x) {
    for (index_t y = 0; y < ni; ++y) column[static_cast<usize>(y)] = ref(y, x);
    plan1.forward(column.data());
    for (index_t y = 0; y < ni; ++y) ref(y, x) = column[static_cast<usize>(y)];
  }
  plan.forward(field.view());
  EXPECT_LT(std::sqrt(diff_norm_sq(field.view(), ref.view()) /
                      std::max(norm_sq(ref.view()), 1e-300)),
            1e-5)
      << "n=" << n;
  // And the inverse path round-trips through the blocked kernels.
  plan.inverse(field.view());
  for (index_t x = 0; x < ni; ++x) {
    for (index_t y = 0; y < ni; ++y) column[static_cast<usize>(y)] = ref(y, x);
    plan1.inverse(column.data());
    for (index_t y = 0; y < ni; ++y) ref(y, x) = column[static_cast<usize>(y)];
  }
  for (index_t y = 0; y < ni; ++y) plan1.inverse(ref.row(y));
  EXPECT_LT(std::sqrt(diff_norm_sq(field.view(), ref.view()) /
                      std::max(norm_sq(ref.view()), 1e-300)),
            1e-5)
      << "n=" << n;
}

// 128 spans two lane blocks in both passes.
INSTANTIATE_TEST_SUITE_P(Pow2, BlockedColumns, ::testing::Values(8, 64, 128));

TEST(Plan1D, RejectsNonPow2Sizes) {
  for (const usize n : {usize{0}, usize{3}, usize{12}, usize{100}, usize{513}}) {
    EXPECT_THROW(Plan1D{n}, Error) << "n=" << n;
  }
  EXPECT_THROW(Fft2D(17, 64), Error);
  EXPECT_THROW(Fft2D(64, 100), Error);
  EXPECT_THROW(Fft2D(0, 8), Error);
}

// ---- radix-4 stage schedule and the spectral-layout entry points -----------

bool bitwise_equal(const cplx* a, const cplx* b, usize n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(cplx)) == 0;
}

CArray2D random_field(index_t rows, index_t cols, std::uint64_t seed) {
  CArray2D field(rows, cols);
  Rng rng(seed);
  for (index_t y = 0; y < rows; ++y) {
    for (index_t x = 0; x < cols; ++x) {
      field(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
    }
  }
  return field;
}

/// The natural-order view of a spectral-layout kernel: out(ky, kx) =
/// spectral[spectral_index(ky, kx)].
CArray2D natural_order(const Fft2D& plan, View2D<const cplx> spectral) {
  const auto rows = static_cast<index_t>(plan.rows());
  const auto cols = static_cast<index_t>(plan.cols());
  CArray2D out(rows, cols);
  for (index_t ky = 0; ky < rows; ++ky) {
    for (index_t kx = 0; kx < cols; ++kx) {
      const usize at = plan.spectral_index(static_cast<usize>(ky), static_cast<usize>(kx));
      out(ky, kx) = spectral.row(static_cast<index_t>(at / plan.rows()))[at % plan.rows()];
    }
  }
  return out;
}

// Radix-4 vs the direct DFT across every power of two 4..1024 — both log2
// parities, so the radix-2 stage is covered.
class Radix4MatchesReference : public ::testing::TestWithParam<usize> {};

TEST_P(Radix4MatchesReference, ForwardAndRoundtrip) {
  const usize n = GetParam();
  Plan1D plan(n);
  const std::vector<cplx> original = random_signal(n, 4000 + n);
  std::vector<cplx> x = original;
  const std::vector<cplx> expected = reference_dft(x, -1);
  plan.forward(x.data());
  EXPECT_LT(rel_error(x, expected), 2e-5) << "n=" << n;
  plan.inverse(x.data());
  EXPECT_LT(rel_error(x, original), 2e-5) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes4To1024, Radix4MatchesReference,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256, 512, 1024));

// The fused entry points must be bitwise-equal to their composed
// natural-order sequences on the same plan: the multiply and the scale move
// onto the tile and the permuting transpose, the per-element operations do
// not change. Shapes cover square and rectangular extents of both log2
// parities, whole Fft2D::kLanes blocks (64x64) and two lane blocks (128).
class FusedEntryPoints : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(FusedEntryPoints, ForwardMultiplyBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 900 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(cols, rows, 901 + static_cast<usize>(rows * cols));
  const CArray2D natural = natural_order(plan, kernel.view());
  const real scale = real(0.125);
  CArray2D composed = input.clone();
  plan.forward(composed.view());
  backend::kernels().cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                                     static_cast<usize>(cols), natural.data(),
                                     static_cast<usize>(cols), false, static_cast<usize>(rows),
                                     static_cast<usize>(cols));
  for (index_t i = 0; i < composed.size(); ++i) composed.data()[i] *= scale;
  // Into a separate output (the far field's form) and in place.
  CArray2D field = input.clone();
  CArray2D out(rows, cols);
  plan.forward_multiply(field.view(), kernel.view(), scale, out.view());
  EXPECT_TRUE(bitwise_equal(out.data(), composed.data(), static_cast<usize>(rows * cols)))
      << rows << "x" << cols;
  CArray2D fused = input.clone();
  plan.forward_multiply(fused.view(), kernel.view(), scale, fused.view());
  EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(), static_cast<usize>(rows * cols)))
      << "in place " << rows << "x" << cols;
}

TEST_P(FusedEntryPoints, MultiplyInverseBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 910 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(cols, rows, 911 + static_cast<usize>(rows * cols));
  const CArray2D natural = natural_order(plan, kernel.view());
  const real scale = real(4);
  for (const bool conj : {false, true}) {
    CArray2D composed = input.clone();
    for (index_t i = 0; i < composed.size(); ++i) composed.data()[i] *= scale;
    backend::kernels().cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                                       static_cast<usize>(cols), natural.data(),
                                       static_cast<usize>(cols), conj, static_cast<usize>(rows),
                                       static_cast<usize>(cols));
    plan.adjoint_forward(composed.view());
    CArray2D fused = input.clone();
    plan.multiply_inverse(kernel.view(), fused.view(), conj, scale);
    EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(),
                              static_cast<usize>(rows * cols)))
        << rows << "x" << cols << " conj=" << conj;
  }
}

TEST_P(FusedEntryPoints, ScaleVariantsBitwiseEqualComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 920 + static_cast<usize>(rows * cols));
  const cplx alpha(real(0.37), real(-0.81));
  CArray2D composed = input.clone();
  plan.inverse(composed.view());
  scale(alpha, composed.view());
  CArray2D fused = input.clone();
  plan.inverse_scale(fused.view(), alpha);
  EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(), static_cast<usize>(rows * cols)))
      << "inverse_scale " << rows << "x" << cols;
  // The unnormalized inverse is inverse * size() to the bit (the scale is a
  // power of two).
  CArray2D adjoint = input.clone();
  plan.adjoint_forward(adjoint.view());
  CArray2D inverse = input.clone();
  plan.inverse(inverse.view());
  scale(cplx(static_cast<real>(rows * cols), 0), inverse.view());
  EXPECT_TRUE(bitwise_equal(adjoint.data(), inverse.data(), static_cast<usize>(rows * cols)))
      << "adjoint_forward " << rows << "x" << cols;
}

TEST_P(FusedEntryPoints, ConvolveBitwiseEqualsFusedPair) {
  // convolve keeps the spectrum in the tile; leaving it through the
  // natural-order exit and re-entering through the permuting transpose
  // moves the same values, so the two agree to the bit.
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 930 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(cols, rows, 931 + static_cast<usize>(rows * cols));
  for (const bool conj : {false, true}) {
    CArray2D pair = input.clone();
    if (conj) {
      plan.forward(pair.view());
      plan.multiply_inverse(kernel.view(), pair.view(), true);
    } else {
      plan.forward_multiply(pair.view(), kernel.view(), real(1), pair.view());
      plan.adjoint_forward(pair.view());
    }
    CArray2D fused = input.clone();
    plan.convolve(fused.view(), kernel.view(), conj);
    EXPECT_TRUE(bitwise_equal(fused.data(), pair.data(), static_cast<usize>(rows * cols)))
        << rows << "x" << cols << " conj=" << conj;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedEntryPoints,
                         ::testing::Values(std::pair<index_t, index_t>{32, 16},
                                           std::pair<index_t, index_t>{16, 32},
                                           std::pair<index_t, index_t>{8, 128},
                                           std::pair<index_t, index_t>{16, 64},
                                           std::pair<index_t, index_t>{64, 64},
                                           std::pair<index_t, index_t>{128, 64}));

// convolve against the textbook natural-order path: forward, multiply by H,
// normalized inverse, with H / (rows * cols) stored in the spectral layout.
// Square and rectangular power-of-two shapes 8..256; the field is a window
// view (row_stride > cols) into a larger array.
class ConvolveMatchesNatural : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(ConvolveMatchesNatural, WithinSinglePrecision) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const auto seed = static_cast<std::uint64_t>(rows * 1000 + cols);
  const CArray2D h = random_field(rows, cols, seed);
  CArray2D spectral(cols, rows);
  const real inv_size = real(1) / static_cast<real>(rows * cols);
  for (index_t ky = 0; ky < rows; ++ky) {
    for (index_t kx = 0; kx < cols; ++kx) {
      spectral.data()[plan.spectral_index(static_cast<usize>(ky), static_cast<usize>(kx))] =
          h(ky, kx) * inv_size;
    }
  }
  const CArray2D outer = random_field(rows + 3, cols + 5, seed + 1);
  for (const bool conj : {false, true}) {
    CArray2D expected = outer.clone();
    View2D<cplx> ev = expected.sub(2, 3, rows, cols);
    plan.forward(ev);
    for (index_t y = 0; y < rows; ++y) {
      for (index_t x = 0; x < cols; ++x) {
        ev(y, x) *= conj ? std::conj(h(y, x)) : h(y, x);
      }
    }
    plan.inverse(ev);
    CArray2D got = outer.clone();
    plan.convolve(got.sub(2, 3, rows, cols), spectral.view(), conj);
    EXPECT_LT(std::sqrt(diff_norm_sq(got.view(), expected.view()) / norm_sq(expected.view())),
              1e-5)
        << rows << "x" << cols << " conj=" << conj;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvolveMatchesNatural,
    ::testing::Values(std::pair<index_t, index_t>{8, 8}, std::pair<index_t, index_t>{16, 16},
                      std::pair<index_t, index_t>{32, 32}, std::pair<index_t, index_t>{64, 64},
                      std::pair<index_t, index_t>{128, 128},
                      std::pair<index_t, index_t>{256, 256}, std::pair<index_t, index_t>{8, 256},
                      std::pair<index_t, index_t>{256, 8}, std::pair<index_t, index_t>{16, 64},
                      std::pair<index_t, index_t>{128, 32}));

TEST(Fft2DRowPass, BitwiseMatchesPerRowPlan1D) {
  // Both 2-D passes run every lane through the per-element operation
  // sequence of the contiguous 1-D transform (same stage schedule, same
  // dispatched kernels), and the permuting transposes only move values, so
  // a forward must agree bitwise with Plan1D over every column, then every
  // row, and an inverse with Plan1D over every row, then every column (the
  // power-of-two normalizations commute exactly). Shapes cover partial and
  // whole lane blocks.
  for (const auto& [rows, cols] : {std::pair<index_t, index_t>{16, 16},
                                   {32, 8},
                                   {16, 128},
                                   {32, 32},
                                   {64, 64},
                                   {128, 64}}) {
    Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
    Plan1D row_plan(static_cast<usize>(cols));
    Plan1D col_plan(static_cast<usize>(rows));
    const auto column_pass = [&](CArray2D& field, bool fwd) {
      std::vector<cplx> column(static_cast<usize>(rows));
      for (index_t x = 0; x < cols; ++x) {
        for (index_t y = 0; y < rows; ++y) column[static_cast<usize>(y)] = field(y, x);
        if (fwd) {
          col_plan.forward(column.data());
        } else {
          col_plan.inverse(column.data());
        }
        for (index_t y = 0; y < rows; ++y) field(y, x) = column[static_cast<usize>(y)];
      }
    };
    const CArray2D input = random_field(rows, cols, 930 + static_cast<usize>(rows * cols));
    CArray2D a = input.clone();
    CArray2D ref = input.clone();
    plan.forward(a.view());
    column_pass(ref, true);
    for (index_t y = 0; y < rows; ++y) row_plan.forward(ref.row(y));
    EXPECT_TRUE(bitwise_equal(a.data(), ref.data(), static_cast<usize>(rows * cols)))
        << "forward " << rows << "x" << cols;
    plan.inverse(a.view());
    for (index_t y = 0; y < rows; ++y) row_plan.inverse(ref.row(y));
    column_pass(ref, false);
    EXPECT_TRUE(bitwise_equal(a.data(), ref.data(), static_cast<usize>(rows * cols)))
        << "inverse " << rows << "x" << cols;
  }
}

TEST(Fft2D, StridedWindowMatchesCompactCopyAndLeavesMarginUntouched) {
  // The column passes transform the caller's memory in place, so a window
  // view (row_stride > cols) must give the same bits as a compact copy,
  // and not one element outside the window may change. The spectral
  // kernel is a window view too, so the tile multiply reads through its
  // own stride.
  for (const auto& [rows, cols] :
       {std::pair<index_t, index_t>{64, 64}, {16, 64}, {8, 128}, {128, 64}}) {
    const auto seed = static_cast<usize>(rows * cols);
    const CArray2D outer = random_field(rows + 3, cols + 5, 940 + seed);
    const CArray2D kernel_outer = random_field(cols + 2, rows + 7, 941 + seed);
    const View2D<const cplx> kernel = kernel_outer.sub(1, 4, cols, rows);
    Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
    const cplx alpha(real(0.37), real(-0.81));
    const std::vector<std::pair<const char*, std::function<void(View2D<cplx>)>>> entry_points = {
        {"forward", [&](View2D<cplx> f) { plan.forward(f); }},
        {"inverse", [&](View2D<cplx> f) { plan.inverse(f); }},
        {"forward_multiply", [&](View2D<cplx> f) { plan.forward_multiply(f, kernel, 2, f); }},
        {"multiply_inverse", [&](View2D<cplx> f) { plan.multiply_inverse(kernel, f, true, 2); }},
        {"inverse_scale", [&](View2D<cplx> f) { plan.inverse_scale(f, alpha); }},
        {"convolve", [&](View2D<cplx> f) { plan.convolve(f, kernel); }},
    };
    for (const auto& [name, run] : entry_points) {
      CArray2D windowed = outer.clone();
      CArray2D compact(rows, cols);
      copy(windowed.sub(2, 3, rows, cols), compact.view());
      run(windowed.sub(2, 3, rows, cols));
      run(compact.view());
      int inside_mismatches = 0;
      int outside_changes = 0;
      for (index_t y = 0; y < rows + 3; ++y) {
        for (index_t x = 0; x < cols + 5; ++x) {
          const bool inside = y >= 2 && y < rows + 2 && x >= 3 && x < cols + 3;
          const cplx& expected = inside ? compact(y - 2, x - 3) : outer(y, x);
          if (!bitwise_equal(&windowed(y, x), &expected, 1)) {
            ++(inside ? inside_mismatches : outside_changes);
          }
        }
      }
      EXPECT_EQ(inside_mismatches, 0) << name << " " << rows << "x" << cols;
      EXPECT_EQ(outside_changes, 0) << name << " " << rows << "x" << cols;
    }
  }
}

// ---- pinned output bits ------------------------------------------------------
//
// CRC-32 of the output bytes of every 2-D entry point. The literals were
// produced when the engine moved to the DIF forward / DIT inverse pair
// with the spectrum kept in the tile; they pin the bits across any later
// rework of the pass structure. The kernel is read in the spectral layout.
// Inputs are exact multiples of 2^-12 drawn from raw generator bits, so the
// pinned bytes depend on no libm call in the test itself. Outputs are
// hashed in host byte order: the literals hold on little-endian hosts.

CArray2D exact_field(index_t rows, index_t cols, std::uint64_t seed) {
  CArray2D field(rows, cols);
  Rng rng(seed);
  const auto draw = [&rng] {
    return static_cast<real>(static_cast<int>(rng.next_u64() >> 51) - 4096) / real(4096);
  };
  for (index_t y = 0; y < rows; ++y) {
    for (index_t x = 0; x < cols; ++x) {
      const real re = draw();
      field(y, x) = cplx(re, draw());
    }
  }
  return field;
}

struct GoldenCase {
  index_t rows;
  index_t cols;
  std::uint32_t forward;
  std::uint32_t inverse;
  std::uint32_t forward_multiply;
  std::uint32_t multiply_inverse;  // conjugated kernel
  std::uint32_t inverse_scale;
  std::uint32_t convolve;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.rows << "x" << c.cols; }

class Fft2DGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Fft2DGolden, EntryPointOutputsMatchPinnedCrc) {
  if constexpr (std::endian::native != std::endian::little) GTEST_SKIP();
  const GoldenCase& c = GetParam();
  const auto seed = static_cast<std::uint64_t>(c.rows * 1000 + c.cols);
  const CArray2D input = exact_field(c.rows, c.cols, seed);
  const CArray2D kernel = exact_field(c.cols, c.rows, seed + 1);
  const cplx alpha(real(0.375), real(-0.8125));
  Fft2D plan(static_cast<usize>(c.rows), static_cast<usize>(c.cols));
  const auto crc_after = [&input](const auto& run) {
    CArray2D field = input.clone();
    run(field.view());
    return crc32(field.data(), static_cast<usize>(field.size()) * sizeof(cplx));
  };
  const auto hex = [](std::uint32_t v) {
    std::ostringstream os;
    os << "0x" << std::hex << std::uppercase << v;
    return os.str();
  };
  const std::uint32_t got[6] = {
      crc_after([&](View2D<cplx> f) { plan.forward(f); }),
      crc_after([&](View2D<cplx> f) { plan.inverse(f); }),
      crc_after([&](View2D<cplx> f) { plan.forward_multiply(f, kernel.view(), 1, f); }),
      crc_after([&](View2D<cplx> f) { plan.multiply_inverse(kernel.view(), f, true); }),
      crc_after([&](View2D<cplx> f) { plan.inverse_scale(f, alpha); }),
      crc_after([&](View2D<cplx> f) { plan.convolve(f, kernel.view()); }),
  };
  const std::uint32_t want[6] = {c.forward,          c.inverse,       c.forward_multiply,
                                 c.multiply_inverse, c.inverse_scale, c.convolve};
  const char* names[6] = {"forward",          "inverse",       "forward_multiply",
                          "multiply_inverse", "inverse_scale", "convolve"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(hex(got[i]), hex(want[i])) << names[i] << " " << c.rows << "x" << c.cols;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2DGolden,
    ::testing::Values(
    GoldenCase{64, 64, 0x6B8AFBE5u, 0xCAA54CB0u, 0x3ED2AC6Cu,
               0x5C64B826u, 0x90D317A7u, 0xC7919C9Au},
    GoldenCase{128, 128, 0x4397FAD4u, 0x1A774AC2u, 0x2FF2A114u,
               0x17846482u, 0x68A43223u, 0x69B97CB2u},
    GoldenCase{16, 64, 0x184D20D4u, 0xB497F4B7u, 0x9B7D2626u,
               0xBEFC0F11u, 0xEBA6F7F5u, 0x37C97130u},
    GoldenCase{8, 128, 0x30296AEBu, 0xEDFDB76Cu, 0x6374A8F1u,
               0x9C1F6699u, 0xC5EF1538u, 0xC6F013B9u},
    GoldenCase{128, 64, 0xA0B2D970u, 0xE1A378A9u, 0x104FF411u,
               0xA91EDF2Bu, 0x3FC8C9F8u, 0xC1EA0E22u}));

TEST(Fft2D, OnePlanSharedAcrossConcurrentThreads) {
  // One plan, four threads, each transforming its own field: the pooled
  // tiles must keep them independent (run under TSan to verify raciness,
  // value-compare here). 128 runs two lane blocks per pass.
  for (const usize n : {64, 128}) {
    Fft2D plan(n, n);
    const auto ni = static_cast<index_t>(n);
    const CArray2D input = random_field(ni, ni, n);
    // A spectral kernel carries the pair's 1/n^2, so repeats stay bounded.
    CArray2D kernel = random_field(ni, ni, n + 1);
    scale(cplx(real(1) / static_cast<real>(n * n), 0), kernel.view());
    // Expected: the exact op sequence each thread will run, applied
    // sequentially — concurrent execution must be bitwise indistinguishable.
    const auto transform_sequence = [&plan, &kernel](CArray2D& field) {
      for (int rep = 0; rep < 8; ++rep) {
        plan.forward(field.view());
        plan.inverse(field.view());
        plan.convolve(field.view(), kernel.view(), rep % 2 == 1);
      }
      plan.forward(field.view());
    };
    CArray2D expected = input.clone();
    transform_sequence(expected);
    constexpr int kThreads = 4;
    std::vector<CArray2D> results;
    results.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) results.push_back(input.clone());
    {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&transform_sequence, &results, t] { transform_sequence(results[static_cast<usize>(t)]); });
      }
      for (std::thread& t : threads) t.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_DOUBLE_EQ(
          diff_norm_sq(results[static_cast<usize>(t)].view(), expected.view()), 0.0)
          << "n=" << n << " thread=" << t;
    }
  }
}

}  // namespace
}  // namespace ptycho::fft
