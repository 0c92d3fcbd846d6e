// Unit/property tests for src/fft: fast transforms vs the O(n^2)
// reference, roundtrips, adjoint identities, shifts, the batched strided
// lane passes, the radix-4 stage schedule, the fused spectral entry
// points, strided window views, pinned output bits, and allocation-freedom
// of the shift helpers.
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

TEST(FftHelpers, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(63), 64u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(next_pow2(65), 128u);
}

TEST(FftHelpers, NextPow2GuardsOverflow) {
  // The largest representable power of two round-trips; anything above it
  // must throw instead of looping forever on wrapped arithmetic.
  constexpr usize top = usize{1} << (std::numeric_limits<usize>::digits - 1);
  EXPECT_EQ(next_pow2(top), top);
  EXPECT_THROW((void)next_pow2(top + 1), Error);
  EXPECT_THROW((void)next_pow2(~usize{0}), Error);
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

// Property sweep: forward transform matches the direct DFT for power-of-
// two (radix-4 path) and composite/prime (Bluestein path) sizes; 513 runs
// Bluestein over a radix-4 inner size with odd log2 (1024 = 4^5).
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
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 27, 32, 45, 64, 97,
                                           128, 100, 256, 513));

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
  const usize n = 24;  // Bluestein path
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
  const usize rows = 6;
  const usize cols = 8;
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

// The blocked column pass and the batched strided Plan1D must agree with
// the naive one-column-at-a-time path for both kernel families.
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
  std::vector<cplx> scratch(plan.strided_scratch_size(count));
  plan.forward_strided(batched.data(), count, count, scratch.data());
  for (usize lane = 0; lane < count; ++lane) {
    double err = 0.0;
    double den = 0.0;
    for (usize j = 0; j < n; ++j) {
      err += std::norm(std::complex<double>(batched[j * count + lane]) -
                       std::complex<double>(lanes[lane][j]));
      den += std::norm(std::complex<double>(lanes[lane][j]));
    }
    EXPECT_LT(std::sqrt(err / std::max(den, 1e-300)), 1e-5) << "n=" << n << " lane=" << lane;
  }
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

INSTANTIATE_TEST_SUITE_P(Pow2AndBluestein, BlockedColumns,
                         ::testing::Values(8, 64, 100));  // radix-4 and chirp-z paths

// ---- radix-4 stage schedule and the fused spectral entry points ------------

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

// Radix-4 vs the direct DFT across every power of two 4..1024 — both log2
// parities, so the leading radix-2 fallback stage is covered.
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

// The fused entry points must be bitwise-equal to their composed two-step
// sequences on the same plan: the fold moves the same
// dispatched per-element ops onto a cache-resident block, it must not
// change one bit. Shapes cover pow2, Bluestein and mixed extents, whole
// Fft2D::kLanes blocks (64x64) and a partial last lane block (100x72).
class FusedEntryPoints : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(FusedEntryPoints, ForwardMultiplyBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 900 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(rows, cols, 901 + static_cast<usize>(rows * cols));
  const backend::Kernels& kern = backend::kernels();
  for (const bool conj : {false, true}) {
    CArray2D composed = input.clone();
    plan.forward(composed.view());
    kern.cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                         static_cast<usize>(cols), kernel.data(), static_cast<usize>(cols),
                         conj, static_cast<usize>(rows), static_cast<usize>(cols));
    CArray2D fused = input.clone();
    plan.forward_multiply(fused.view(), kernel.view(), conj);
    EXPECT_TRUE(bitwise_equal(fused.data(), composed.data(),
                              static_cast<usize>(rows * cols)))
        << rows << "x" << cols << " conj=" << conj;
  }
}

TEST_P(FusedEntryPoints, MultiplyInverseBitwiseEqualsComposed) {
  const auto [rows, cols] = GetParam();
  Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
  const CArray2D input = random_field(rows, cols, 910 + static_cast<usize>(rows * cols));
  const CArray2D kernel = random_field(rows, cols, 911 + static_cast<usize>(rows * cols));
  const backend::Kernels& kern = backend::kernels();
  for (const bool conj : {false, true}) {
    CArray2D composed = input.clone();
    kern.cmul_rows_tiled(composed.data(), static_cast<usize>(cols), composed.data(),
                         static_cast<usize>(cols), kernel.data(), static_cast<usize>(cols),
                         conj, static_cast<usize>(rows), static_cast<usize>(cols));
    plan.inverse(composed.view());
    CArray2D fused = input.clone();
    plan.multiply_inverse(kernel.view(), fused.view(), conj);
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
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedEntryPoints,
                         ::testing::Values(std::pair<index_t, index_t>{32, 16},
                                           std::pair<index_t, index_t>{24, 20},
                                           std::pair<index_t, index_t>{8, 100},
                                           std::pair<index_t, index_t>{17, 64},
                                           std::pair<index_t, index_t>{64, 64},
                                           std::pair<index_t, index_t>{100, 72}));

TEST(Fft2DRowPass, BitwiseMatchesPerRowPlan1D) {
  // Both 2-D passes run every lane through the per-element operation
  // sequence of the contiguous 1-D transform (same stage schedule, same
  // dispatched kernels), so a forward must agree bitwise with Plan1D over
  // every row, then every gathered column, and an inverse with the same
  // steps in reverse. Shapes cover partial and whole lane blocks on
  // power-of-two and Bluestein extents.
  for (const auto& [rows, cols] : {std::pair<index_t, index_t>{16, 16},
                                   {20, 8},
                                   {12, 100},
                                   {33, 32},
                                   {64, 64},
                                   {100, 72}}) {
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
    for (index_t y = 0; y < rows; ++y) row_plan.forward(ref.row(y));
    column_pass(ref, true);
    EXPECT_TRUE(bitwise_equal(a.data(), ref.data(), static_cast<usize>(rows * cols)))
        << "forward " << rows << "x" << cols;
    plan.inverse(a.view());
    column_pass(ref, false);
    for (index_t y = 0; y < rows; ++y) row_plan.inverse(ref.row(y));
    EXPECT_TRUE(bitwise_equal(a.data(), ref.data(), static_cast<usize>(rows * cols)))
        << "inverse " << rows << "x" << cols;
  }
}

TEST(Fft2D, StridedWindowMatchesCompactCopyAndLeavesMarginUntouched) {
  // The column pass transforms the caller's memory in place, so a window
  // view (row_stride > cols) must give the same bits as a compact copy,
  // and not one element outside the window may change. The kernel is a
  // window view too, so the fused multiply reads through its own stride.
  for (const auto& [rows, cols] :
       {std::pair<index_t, index_t>{64, 64}, {17, 64}, {8, 100}, {100, 72}}) {
    const auto seed = static_cast<usize>(rows * cols);
    const CArray2D outer = random_field(rows + 3, cols + 5, 940 + seed);
    const CArray2D kernel_outer = random_field(rows + 2, cols + 7, 941 + seed);
    const View2D<const cplx> kernel = kernel_outer.sub(1, 4, rows, cols);
    Fft2D plan(static_cast<usize>(rows), static_cast<usize>(cols));
    const cplx alpha(real(0.37), real(-0.81));
    const std::vector<std::pair<const char*, std::function<void(View2D<cplx>)>>> entry_points = {
        {"forward", [&](View2D<cplx> f) { plan.forward(f); }},
        {"inverse", [&](View2D<cplx> f) { plan.inverse(f); }},
        {"forward_multiply", [&](View2D<cplx> f) { plan.forward_multiply(f, kernel); }},
        {"multiply_inverse", [&](View2D<cplx> f) { plan.multiply_inverse(kernel, f, true); }},
        {"inverse_scale", [&](View2D<cplx> f) { plan.inverse_scale(f, alpha); }},
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
// produced by the earlier 16-column gather / 16-row transpose passes, so
// they pin the bits across any rework of the pass structure. Inputs are
// exact multiples of 2^-12 drawn from raw generator bits, so the pinned
// bytes depend on no libm call in the test itself. Outputs are hashed in
// host byte order: the literals hold on little-endian hosts.

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
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.rows << "x" << c.cols; }

class Fft2DGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Fft2DGolden, EntryPointOutputsMatchPinnedCrc) {
  if constexpr (std::endian::native != std::endian::little) GTEST_SKIP();
  const GoldenCase& c = GetParam();
  const auto seed = static_cast<std::uint64_t>(c.rows * 1000 + c.cols);
  const CArray2D input = exact_field(c.rows, c.cols, seed);
  const CArray2D kernel = exact_field(c.rows, c.cols, seed + 1);
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
  const std::uint32_t got[5] = {
      crc_after([&](View2D<cplx> f) { plan.forward(f); }),
      crc_after([&](View2D<cplx> f) { plan.inverse(f); }),
      crc_after([&](View2D<cplx> f) { plan.forward_multiply(f, kernel.view()); }),
      crc_after([&](View2D<cplx> f) { plan.multiply_inverse(kernel.view(), f, true); }),
      crc_after([&](View2D<cplx> f) { plan.inverse_scale(f, alpha); }),
  };
  const std::uint32_t want[5] = {c.forward, c.inverse, c.forward_multiply, c.multiply_inverse,
                                 c.inverse_scale};
  const char* names[5] = {"forward", "inverse", "forward_multiply", "multiply_inverse",
                          "inverse_scale"};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(hex(got[i]), hex(want[i])) << names[i] << " " << c.rows << "x" << c.cols;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2DGolden,
    ::testing::Values(
    GoldenCase{64, 64, 0x7F8965BDu, 0x3F24DDC4u, 0xD00D11A7u,
               0x37C9E168u, 0x457EE869u},
    GoldenCase{128, 128, 0x29C299D1u, 0xCEB37026u, 0x9982BB3Bu,
               0xD91C779Fu, 0x3E148F9Au},
    GoldenCase{17, 64, 0xEC76C6EFu, 0x9EDE6226u, 0x218A58B8u,
               0x65669674u, 0x741BFAF7u},
    GoldenCase{8, 100, 0xEB08FF26u, 0x68A5ED3Cu, 0xA38819EAu,
               0x47E0A367u, 0xE202DC82u},
    GoldenCase{100, 72, 0xC11CEB60u, 0x72D8A65Au, 0x53F35951u,
               0x3AEDA63Eu, 0xF6923033u}));

TEST(Fft2D, OnePlanSharedAcrossConcurrentThreads) {
  // One plan, four threads, each transforming its own field: the pooled
  // scratch must keep them independent (run under TSan to verify raciness,
  // value-compare here). 100 exercises the Bluestein pad in the pool too.
  for (const usize n : {64, 100}) {
    Fft2D plan(n, n);
    const auto ni = static_cast<index_t>(n);
    CArray2D input(ni, ni);
    Rng rng(n);
    for (index_t y = 0; y < ni; ++y) {
      for (index_t x = 0; x < ni; ++x) {
        input(y, x) = cplx(static_cast<real>(rng.normal()), static_cast<real>(rng.normal()));
      }
    }
    // Expected: the exact op sequence each thread will run, applied
    // sequentially — concurrent execution must be bitwise indistinguishable.
    const auto transform_sequence = [&plan](CArray2D& field) {
      for (int rep = 0; rep < 8; ++rep) {
        plan.forward(field.view());
        plan.inverse(field.view());
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
