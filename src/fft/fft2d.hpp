// Two-dimensional planned FFT over View2D<cplx>, plus fftshift helpers.
//
// The multislice operator transforms each probe-sized wavefield twice per
// slice, so Fft2D is the hottest kernel in the library. Both passes run
// through the batched strided Plan1D entry point, up to kLanes signals
// per call, so every butterfly inner loop vectorizes across the lanes:
//
//   column pass  the field's columns already are lanes (element y of
//                column x sits at y * row_stride + x), so blocks of up to
//                kLanes columns transform in place in the caller's field,
//                with no gather or scatter tile;
//   row pass     up to kLanes rows are moved into a lane-major tile by a
//                blocked 8x8 transpose, transformed by one strided call
//                and moved back.
//
// Each lane runs the per-element operation sequence of the contiguous
// 1-D transform, so the output is bitwise identical to transforming every
// row, then every column, one at a time. The inverse runs columns first,
// then rows, which lets the fused entry points below fold point-wise
// spectral work into the column block that is already in cache:
//
//   forward_multiply  = forward  then field *= kernel   (multiply each
//                       column block right after its transform)
//   multiply_inverse  = field *= kernel then inverse    (multiply each
//                       column block right before its transform)
//   forward_scale / inverse_scale = the same fusion for a uniform scale
//
// Each fused call is bitwise identical to its composed two-step sequence
// (the folded op runs the same dispatched per-element kernels, just on
// cache-resident data) while costing zero extra full-field passes.
// Scratch (the row tile and Bluestein pads) lives in a small plan-owned
// pool, leased per call, so a single Fft2D is safe to share across
// concurrently executing workers as long as each transforms its own field.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "fft/plan.hpp"
#include "tensor/array.hpp"

namespace ptycho::fft {

class Fft2D {
 public:
  /// Signals per strided Plan1D call in both passes: a 64-wide probe
  /// window transforms each pass in one call.
  static constexpr index_t kLanes = 64;

  /// Plan for `rows x cols` transforms.
  Fft2D(usize rows, usize cols);

  [[nodiscard]] usize rows() const { return row_plan_.size() == 0 ? 0 : rows_; }
  [[nodiscard]] usize cols() const { return cols_; }
  [[nodiscard]] usize size() const { return rows_ * cols_; }

  /// In-place unnormalized forward transform.
  void forward(View2D<cplx> field) const;

  /// In-place inverse with 1/(rows*cols) normalization.
  void inverse(View2D<cplx> field) const;

  /// Adjoint of `forward` = size() * inverse (see plan.hpp conventions).
  void adjoint_forward(View2D<cplx> field) const;

  /// Adjoint of `inverse` = (1/size()) * forward.
  void adjoint_inverse(View2D<cplx> field) const;

  /// Fused forward(field); field[i] *= kernel[i] (conj(kernel[i]) when
  /// `conj_kernel`). Bitwise identical to the composed sequence; the
  /// multiply costs no extra pass over the field.
  void forward_multiply(View2D<cplx> field, View2D<const cplx> kernel,
                        bool conj_kernel = false) const;

  /// Fused field[i] *= kernel[i] (in the spectrum); inverse(field).
  /// Bitwise identical to the composed sequence.
  void multiply_inverse(View2D<const cplx> kernel, View2D<cplx> field,
                        bool conj_kernel = false) const;

  /// Fused forward(field); field *= alpha.
  void forward_scale(View2D<cplx> field, cplx alpha) const;

  /// Fused inverse(field); field *= alpha.
  void inverse_scale(View2D<cplx> field, cplx alpha) const;

 private:
  /// Point-wise kernel multiply folded into the column pass: `pre` applies
  /// it to each column block before its transform, otherwise after it.
  /// `data`/`stride` address the kernel's row-major storage.
  struct MultiplySpec {
    const cplx* data;
    usize stride;
    bool conj;
    bool pre;
  };

  /// Pooled per-call scratch: the lane-major row tile (cols x up to
  /// kLanes) and the batched-Bluestein pads of both passes (empty for
  /// power-of-two extents).
  struct Scratch {
    std::vector<cplx> row_tile;
    std::vector<cplx> row_bluestein;
    std::vector<cplx> col_bluestein;
  };

  /// RAII lease of a pooled scratch buffer; returns it on destruction.
  class ScratchLease {
   public:
    ScratchLease(const Fft2D& plan, std::unique_ptr<Scratch> scratch)
        : plan_(plan), scratch_(std::move(scratch)) {}
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] Scratch& get() const { return *scratch_; }

   private:
    const Fft2D& plan_;
    std::unique_ptr<Scratch> scratch_;
  };

  [[nodiscard]] ScratchLease acquire_scratch() const;

  void transform_rows(View2D<cplx> field, bool fwd, const cplx* post_scale) const;
  void transform_cols(View2D<cplx> field, bool fwd, const MultiplySpec* mul,
                      const cplx* post_scale) const;

  usize rows_ = 0;
  usize cols_ = 0;
  Plan1D row_plan_;  // length cols_ (transforms along x)
  Plan1D col_plan_;  // length rows_ (transforms along y)

  // Pool of scratch buffers. Concurrent transforms each lease one
  // (allocating on first use), so sharing one plan across workers is
  // race-free and steady-state transforms allocate nothing.
  mutable std::mutex scratch_mutex_;
  mutable std::vector<std::unique_ptr<Scratch>> scratch_pool_;
};

/// Swap quadrants so the zero frequency moves to the array center.
/// In-place and allocation-free (element swaps/rotations only).
void fftshift(View2D<cplx> field);

/// Inverse of fftshift (differs from it for odd extents).
void ifftshift(View2D<cplx> field);

/// Frequency coordinate of index i in an n-point DFT, in cycles/sample
/// units of 1/n (i.e. the standard fftfreq ordering: 0, 1, ..., -1 scaled).
[[nodiscard]] double fft_freq(usize i, usize n);

}  // namespace ptycho::fft
