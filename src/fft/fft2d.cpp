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

Fft2D::Fft2D(usize rows, usize cols) : rows_(rows), cols_(cols), row_plan_(cols), col_plan_(rows) {
  PTYCHO_REQUIRE(rows >= 1 && cols >= 1, "Fft2D extents must be >= 1");
}

Fft2D::ScratchLease::~ScratchLease() {
  std::lock_guard<std::mutex> lock(plan_.scratch_mutex_);
  plan_.scratch_pool_.push_back(std::move(scratch_));
}

Fft2D::ScratchLease Fft2D::acquire_scratch() const {
  {
    std::lock_guard<std::mutex> lock(scratch_mutex_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return ScratchLease(*this, std::move(scratch));
    }
  }
  const usize row_lanes = std::min(rows_, static_cast<usize>(kLanes));
  const usize col_lanes = std::min(cols_, static_cast<usize>(kLanes));
  auto scratch = std::make_unique<Scratch>();
  scratch->row_tile.resize(cols_ * row_lanes);
  scratch->row_bluestein.resize(row_plan_.strided_scratch_size(row_lanes));
  scratch->col_bluestein.resize(col_plan_.strided_scratch_size(col_lanes));
  return ScratchLease(*this, std::move(scratch));
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

void Fft2D::transform_rows(View2D<cplx> field, bool fwd, const cplx* post_scale) const {
  // Rows are not lanes in the field's layout, so up to kLanes of them are
  // transposed into a lane-major tile, transformed by one strided call
  // (every butterfly stage vectorizes across the rows, twiddle loads
  // amortize over the batch) and transposed back.
  const backend::Kernels& kern = backend::kernels();
  const ScratchLease lease = acquire_scratch();
  cplx* tile = lease.get().row_tile.data();
  cplx* pad = lease.get().row_bluestein.empty() ? nullptr : lease.get().row_bluestein.data();
  const auto rows = static_cast<usize>(field.rows());
  const auto cols = static_cast<usize>(field.cols());
  const auto stride = static_cast<usize>(field.row_stride());
  for (usize y0 = 0; y0 < rows; y0 += kLanes) {
    const usize b = std::min(static_cast<usize>(kLanes), rows - y0);
    cplx* block = field.data() + y0 * stride;
    transpose_blocked(block, stride, tile, b, b, cols);
    if (fwd) {
      row_plan_.forward_strided(tile, b, b, pad);
    } else {
      row_plan_.inverse_strided(tile, b, b, pad);
    }
    if (post_scale != nullptr) kern.scale_lanes(tile, tile, *post_scale, cols * b);
    transpose_blocked(tile, b, block, stride, cols, b);
  }
}

void Fft2D::transform_cols(View2D<cplx> field, bool fwd, const MultiplySpec* mul) const {
  // Columns already are lanes: element y of column x sits at
  // y * row_stride + x, so each block of up to kLanes columns transforms
  // in place in the caller's field with no gather or scatter. The fused
  // multiply runs on the same block right before/after it.
  const backend::Kernels& kern = backend::kernels();
  const ScratchLease lease = acquire_scratch();
  cplx* pad = lease.get().col_bluestein.empty() ? nullptr : lease.get().col_bluestein.data();
  const auto rows = static_cast<usize>(field.rows());
  const auto cols = static_cast<usize>(field.cols());
  const auto stride = static_cast<usize>(field.row_stride());
  for (usize x0 = 0; x0 < cols; x0 += kLanes) {
    const usize b = std::min(static_cast<usize>(kLanes), cols - x0);
    cplx* block = field.data() + x0;
    if (mul != nullptr && mul->pre) {
      kern.cmul_rows_tiled(block, stride, block, stride, mul->data + x0, mul->stride, mul->conj,
                           rows, b);
    }
    if (fwd) {
      col_plan_.forward_strided(block, stride, b, pad);
    } else {
      col_plan_.inverse_strided(block, stride, b, pad);
    }
    if (mul != nullptr && !mul->pre) {
      kern.cmul_rows_tiled(block, stride, block, stride, mul->data + x0, mul->stride, mul->conj,
                           rows, b);
    }
  }
}

namespace {
void check_shape(View2D<const cplx> field, usize rows, usize cols, const char* what) {
  PTYCHO_CHECK(field.rows() == static_cast<index_t>(rows) &&
                   field.cols() == static_cast<index_t>(cols),
               what << " shape does not match plan");
}
}  // namespace

void Fft2D::forward(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  transform_rows(field, true, nullptr);
  transform_cols(field, true, nullptr);
}

void Fft2D::inverse(View2D<cplx> field) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  transform_cols(field, false, nullptr);
  transform_rows(field, false, nullptr);
}

void Fft2D::forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                             bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  transform_rows(field, true, nullptr);
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel,
                         /*pre=*/false};
  transform_cols(field, true, &mul);
}

void Fft2D::multiply_inverse(View2D<const cplx> kernel, View2D<cplx> field,
                             bool conj_kernel) const {
  check_shape(field, rows_, cols_, "field");
  check_shape(kernel, rows_, cols_, "kernel");
  note_transform(rows_, cols_);
  const MultiplySpec mul{kernel.data(), static_cast<usize>(kernel.row_stride()), conj_kernel,
                         /*pre=*/true};
  transform_cols(field, false, &mul);
  transform_rows(field, false, nullptr);
}

void Fft2D::inverse_scale(View2D<cplx> field, cplx alpha) const {
  check_shape(field, rows_, cols_, "field");
  note_transform(rows_, cols_);
  transform_cols(field, false, nullptr);
  transform_rows(field, false, &alpha);
}

void Fft2D::adjoint_forward(View2D<cplx> field) const {
  inverse_scale(field, cplx(static_cast<real>(size()), 0));
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
