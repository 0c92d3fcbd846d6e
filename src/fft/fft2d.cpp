#include "fft/fft2d.hpp"

#include <algorithm>

#include "backend/kernels.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace ptycho::fft {

namespace {
// One full 2-D transform of a rows x cols field (any fusion variant).
void note_transform(usize rows, usize cols) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& transforms = obs::registry().counter("fft2d_transforms_total");
  static obs::Counter& bytes = obs::registry().counter("fft2d_bytes_total");
  transforms.add(1);
  bytes.add(static_cast<std::uint64_t>(rows) * cols * sizeof(cplx));
}
}  // namespace

Fft2D::Fft2D(usize rows, usize cols) : rows_(rows), cols_(cols), row_plan_(cols), col_plan_(rows) {}

Fft2D::TileLease::TileLease(const Fft2D& plan) : plan_(plan) {
  {
    std::lock_guard<std::mutex> lock(plan_.tile_mutex_);
    if (!plan_.tile_pool_.empty()) {
      tile_ = std::move(plan_.tile_pool_.back());
      plan_.tile_pool_.pop_back();
      return;
    }
  }
  tile_.resize(plan_.size());
}

Fft2D::TileLease::~TileLease() {
  std::lock_guard<std::mutex> lock(plan_.tile_mutex_);
  plan_.tile_pool_.push_back(std::move(tile_));
}

namespace {
// dst[c * dst_stride + r] = src[r * src_stride + c] for r < rows, c < cols,
// in 8x8 blocks: each block reads eight short runs of src and writes eight
// short runs of dst, so neither side strides through the whole field.
void transpose_blocked(const cplx* src, usize src_stride, cplx* dst, usize dst_stride,
                       usize rows, usize cols) {
  constexpr usize kBlock = 8;
  for (usize r0 = 0; r0 < rows; r0 += kBlock) {
    const usize r1 = std::min(r0 + kBlock, rows);
    for (usize c0 = 0; c0 < cols; c0 += kBlock) {
      const usize c1 = std::min(c0 + kBlock, cols);
      for (usize r = r0; r < r1; ++r) {
        for (usize c = c0; c < c1; ++c) dst[c * dst_stride + r] = src[r * src_stride + c];
      }
    }
  }
}
}  // namespace

void Fft2D::columns_to_tile(View2D<cplx> field, cplx* tile) const {
  // Each block of up to kLanes columns transforms in place in the caller's
  // field with no gather or scatter; its output rows sit at rev(ky).
  const auto stride = static_cast<usize>(field.row_stride());
  for (usize x0 = 0; x0 < cols_; x0 += kLanes) {
    const usize b = std::min(static_cast<usize>(kLanes), cols_ - x0);
    col_plan_.forward_dif(field.data() + x0, stride, b);
  }
  transpose_blocked(field.data(), stride, tile, rows_, rows_, cols_);
}

void Fft2D::tile_to_columns(const cplx* tile, View2D<cplx> field) const {
  const auto stride = static_cast<usize>(field.row_stride());
  transpose_blocked(tile, rows_, field.data(), stride, cols_, rows_);
  for (usize x0 = 0; x0 < cols_; x0 += kLanes) {
    const usize b = std::min(static_cast<usize>(kLanes), cols_ - x0);
    col_plan_.inverse_dit(field.data() + x0, stride, b);
  }
}

void Fft2D::tile_rows(cplx* tile, bool dif, const MultiplySpec* mul, bool dit) const {
  // The tile is cols_ rows of rows_ lanes: each strided call transforms up
  // to kLanes of the field's rows at once (twiddle loads amortize over the
  // batch), and the spectral multiply meets the block while it is hot.
  const backend::Kernels& kern = backend::kernels();
  for (usize l0 = 0; l0 < rows_; l0 += kLanes) {
    const usize b = std::min(static_cast<usize>(kLanes), rows_ - l0);
    cplx* block = tile + l0;
    if (dif) row_plan_.forward_dif(block, rows_, b);
    if (mul != nullptr) {
      kern.cmul_rows_tiled(block, rows_, block, rows_, mul->data + l0, mul->stride, mul->conj,
                           cols_, b);
    }
    if (dit) row_plan_.inverse_dit(block, rows_, b);
  }
}

namespace {
// Calls visit(ky, kx, offset) for every frequency, `offset` being its
// position in a rows x cols spectral-layout tile. Bit reversal maps
// disjoint bit fields independently, so rows c + j*rows/8 (j < 8) sit on
// eight consecutive lanes and columns x0 + t (t < 8) on eight tile rows:
// blocking by those groups touches eight cache lines on each side.
template <typename Visit>
void visit_spectral(const Plan1D& col_plan, const Plan1D& row_plan, Visit visit) {
  constexpr usize kBlock = 8;
  const usize rows = col_plan.size();
  const usize cols = row_plan.size();
  if (rows < kBlock || cols < kBlock) {
    for (usize ky = 0; ky < rows; ++ky) {
      for (usize kx = 0; kx < cols; ++kx) {
        visit(ky, kx, row_plan.bitrev(kx) * rows + col_plan.bitrev(ky));
      }
    }
    return;
  }
  const usize row_step = rows / kBlock;
  for (usize c = 0; c < row_step; ++c) {
    for (usize x0 = 0; x0 < cols; x0 += kBlock) {
      const usize base = row_plan.bitrev(x0) * rows + col_plan.bitrev(c);
      for (usize j = 0; j < kBlock; ++j) {
        const usize lane = base + col_plan.bitrev(j * row_step);
        for (usize t = 0; t < kBlock; ++t) {
          visit(c + j * row_step, x0 + t, lane + row_plan.bitrev(t) * rows);
        }
      }
    }
  }
}
}  // namespace

void Fft2D::tile_to_natural(const cplx* tile, real scale, View2D<cplx> out) const {
  visit_spectral(col_plan_, row_plan_, [&](usize ky, usize kx, usize at) {
    out(static_cast<index_t>(ky), static_cast<index_t>(kx)) = tile[at] * scale;
  });
}

void Fft2D::natural_to_tile(View2D<const cplx> in, real scale, cplx* tile) const {
  visit_spectral(col_plan_, row_plan_, [&](usize ky, usize kx, usize at) {
    tile[at] = in(static_cast<index_t>(ky), static_cast<index_t>(kx)) * scale;
  });
}

namespace {
void check_shape(View2D<const cplx> field, usize rows, usize cols, const char* what) {
  PTYCHO_CHECK(field.rows() == static_cast<index_t>(rows) &&
                   field.cols() == static_cast<index_t>(cols),
               what << " shape does not match plan");
}
}  // namespace

void Fft2D::forward_impl(View2D<cplx> field, const MultiplySpec* mul, real scale,
                         View2D<cplx> out) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(out, rows_, cols_, "output");
  note_transform(rows_, cols_);
  TileLease tile(*this);
  columns_to_tile(field, tile.data());
  tile_rows(tile.data(), /*dif=*/true, mul, /*dit=*/false);
  tile_to_natural(tile.data(), scale, out);
}

void Fft2D::inverse_impl(View2D<cplx> field, const MultiplySpec* mul, real scale) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  TileLease tile(*this);
  natural_to_tile(field, scale, tile.data());
  tile_rows(tile.data(), /*dif=*/false, mul, /*dit=*/true);
  tile_to_columns(tile.data(), field);
}

void Fft2D::forward(View2D<cplx> field) const { forward_impl(field, nullptr, real(1), field); }

void Fft2D::inverse(View2D<cplx> field) const {
  // 1/(rows*cols) is a power of two, so folding it into the entry transpose
  // is exact: the same bits as scaling after the transform.
  inverse_impl(field, nullptr, real(1) / static_cast<real>(size()));
}

void Fft2D::adjoint_forward(View2D<cplx> field) const { inverse_impl(field, nullptr, real(1)); }

void Fft2D::inverse_scale(View2D<cplx> field, cplx alpha) const {
  inverse(field);
  const backend::Kernels& kern = backend::kernels();
  for (index_t y = 0; y < field.rows(); ++y) {
    kern.scale_lanes(field.row(y), field.row(y), alpha, cols_);
  }
}

void Fft2D::convolve(View2D<cplx> field, View2D<const cplx> spectral_kernel,
                     bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(spectral_kernel, cols_, rows_, "spectral kernel");
  note_transform(rows_, cols_);
  note_transform(rows_, cols_);
  const MultiplySpec mul{spectral_kernel.data(), static_cast<usize>(spectral_kernel.row_stride()),
                         conj_kernel};
  TileLease tile(*this);
  columns_to_tile(field, tile.data());
  tile_rows(tile.data(), /*dif=*/true, &mul, /*dit=*/true);
  tile_to_columns(tile.data(), field);
}

void Fft2D::forward_multiply(View2D<cplx> field, View2D<const cplx> spectral_kernel, real scale,
                             View2D<cplx> out) const {
  check_shape(spectral_kernel, cols_, rows_, "spectral kernel");
  const MultiplySpec mul{spectral_kernel.data(), static_cast<usize>(spectral_kernel.row_stride()),
                         false};
  forward_impl(field, &mul, scale, out);
}

void Fft2D::multiply_inverse(View2D<const cplx> spectral_kernel, View2D<cplx> field,
                             bool conj_kernel, real scale) const {
  check_shape(spectral_kernel, cols_, rows_, "spectral kernel");
  const MultiplySpec mul{spectral_kernel.data(), static_cast<usize>(spectral_kernel.row_stride()),
                         conj_kernel};
  inverse_impl(field, &mul, scale);
}

namespace {
// In-place roll: new (y, x) reads old ((y - shift_y) mod rows,
// (x - shift_x) mod cols). Built from per-row rotations and whole-row
// reversals, so no temporary buffer is ever allocated.
void roll_inplace(View2D<cplx> field, index_t shift_y, index_t shift_x) {
  const index_t rows = field.rows();
  const index_t cols = field.cols();
  if (rows == 0 || cols == 0) return;
  shift_y %= rows;
  shift_x %= cols;
  if (shift_x != 0) {
    // Rotate each row right by shift_x (std::rotate is swap-based).
    for (index_t y = 0; y < rows; ++y) {
      cplx* row = field.row(y);
      std::rotate(row, row + (cols - shift_x), row + cols);
    }
  }
  if (shift_y != 0) {
    // Rotate the row order down by shift_y with the three-reversal
    // identity; reversing a range of rows is pairwise whole-row swaps.
    const auto reverse_rows = [&field, cols](index_t lo, index_t hi) {
      while (lo < hi - 1) {
        cplx* a = field.row(lo++);
        cplx* b = field.row(--hi);
        std::swap_ranges(a, a + cols, b);
      }
    };
    reverse_rows(0, rows);
    reverse_rows(0, shift_y);
    reverse_rows(shift_y, rows);
  }
}
}  // namespace

void fftshift(View2D<cplx> field) { roll_inplace(field, field.rows() / 2, field.cols() / 2); }

void ifftshift(View2D<cplx> field) {
  roll_inplace(field, (field.rows() + 1) / 2, (field.cols() + 1) / 2);
}

double fft_freq(usize i, usize n) {
  const auto signed_i = static_cast<long long>(i);
  const auto signed_n = static_cast<long long>(n);
  const long long half = (signed_n - 1) / 2;
  const long long k = signed_i <= half ? signed_i : signed_i - signed_n;
  return static_cast<double>(k) / static_cast<double>(signed_n);
}

}  // namespace ptycho::fft
