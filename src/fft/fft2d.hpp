// Two-dimensional planned FFT over View2D<cplx>, plus fftshift helpers.
//
// The multislice operator transforms each probe-sized wavefield twice per
// slice, so Fft2D is the hottest kernel in the library. It is built on
// Plan1D's permutation-free pair (decimation-in-frequency forward,
// decimation-in-time inverse), run batched over up to kLanes signals per
// strided call so every butterfly inner loop vectorizes across the lanes.
// A forward runs
//
//   column DIF   in place in the caller's field: columns already are
//                lanes (element y of column x sits at y * row_stride + x);
//   transpose    one blocked transpose into a pooled rows x cols tile;
//   row DIF      along the tile's rows, with the field's rows as lanes.
//
// and leaves the spectrum in the tile in the *spectral layout*: transposed
// and bit-reversed along both axes, frequency (ky, kx) at tile row
// rev(kx), lane rev(ky) (spectral_index). The inverse runs the same steps
// mirrored (row DIT, transpose back, column DIT) from that layout.
//
// convolve() is the propagator's step: forward, a point-wise multiply by a
// kernel stored in the spectral layout, inverse, with the spectrum never
// leaving the tile. That is two transposes, no permutation and no scale
// pass per pair: a spectral kernel carries the pair's 1/(rows*cols)
// itself, so the inverse halves here are unnormalized.
//
// The natural-order entry points fold the layout change into one
// permuting transpose each: forward/forward_multiply leave the tile
// through it, inverse/multiply_inverse/inverse_scale enter through it.
// forward_multiply and multiply_inverse take spectral-layout kernels too
// (the multislice far field and its adjoint); forward, inverse and
// inverse_scale serve the probe, perfbench and the tests.
//
// The tile lives in a small plan-owned pool, leased per call, so a single
// Fft2D is safe to share across concurrently executing workers as long as
// each transforms its own field. Extents must be powers of two.
#pragma once

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

  /// Plan for `rows x cols` transforms (both powers of two; throws
  /// ptycho::Error otherwise).
  Fft2D(usize rows, usize cols);

  [[nodiscard]] usize rows() const { return rows_; }
  [[nodiscard]] usize cols() const { return cols_; }
  [[nodiscard]] usize size() const { return rows_ * cols_; }

  /// Flat position of frequency (ky, kx) in a spectral-layout array: a
  /// cols x rows row-major array, row rev(kx), column rev(ky).
  [[nodiscard]] usize spectral_index(usize ky, usize kx) const {
    return row_plan_.bitrev(kx) * rows_ + col_plan_.bitrev(ky);
  }

  /// In-place unnormalized forward transform, natural order.
  void forward(View2D<cplx> field) const;

  /// In-place inverse with 1/(rows*cols) normalization, natural order.
  void inverse(View2D<cplx> field) const;

  /// Adjoint of `forward` = size() * inverse (see plan.hpp conventions):
  /// the unnormalized inverse.
  void adjoint_forward(View2D<cplx> field) const;

  /// inverse(field); field *= alpha.
  void inverse_scale(View2D<cplx> field, cplx alpha) const;

  /// field <- F^H(K ⊙ F(field)) (conj(K) when `conj_kernel`), with K the
  /// cols x rows `spectral_kernel` in the spectral layout. With K holding
  /// H / (rows*cols) this is the convolution F^-1(H ⊙ F(field)). Counts
  /// as two transforms.
  void convolve(View2D<cplx> field, View2D<const cplx> spectral_kernel,
                bool conj_kernel = false) const;

  /// out = scale * K ⊙ F(field) in natural order, K in the spectral
  /// layout; the multiply runs on the tile, the scale in the permuting
  /// transpose that writes `out`. `out` may be `field`; otherwise `field`
  /// is left holding the column pass.
  void forward_multiply(View2D<cplx> field, View2D<const cplx> spectral_kernel, real scale,
                        View2D<cplx> out) const;

  /// field <- F^H(scale * K ⊙ field) (conj(K) when `conj_kernel`) from
  /// and to natural order: the adjoint of forward_multiply. F^H is the
  /// unnormalized inverse; K carries any normalization.
  void multiply_inverse(View2D<const cplx> spectral_kernel, View2D<cplx> field,
                        bool conj_kernel = false, real scale = real(1)) const;

 private:
  /// Point-wise multiply by a spectral-layout kernel on the tile.
  struct MultiplySpec {
    const cplx* data;
    usize stride;
    bool conj;
  };

  /// RAII lease of a pooled rows x cols tile; returns it on destruction.
  class TileLease {
   public:
    explicit TileLease(const Fft2D& plan);
    ~TileLease();
    TileLease(const TileLease&) = delete;
    TileLease& operator=(const TileLease&) = delete;
    [[nodiscard]] cplx* data() { return tile_.data(); }

   private:
    const Fft2D& plan_;
    std::vector<cplx> tile_;
  };

  /// Column DIF over the field in place, then the transpose into the tile.
  void columns_to_tile(View2D<cplx> field, cplx* tile) const;
  /// The transpose back out of the tile, then the column DIT in place.
  void tile_to_columns(const cplx* tile, View2D<cplx> field) const;
  /// Per block of up to kLanes tile lanes: row DIF, spectral multiply and
  /// row DIT, each step optional, so the block stays in cache across them.
  void tile_rows(cplx* tile, bool dif, const MultiplySpec* mul, bool dit) const;
  /// out = scale * spectrum in natural order, read from the tile.
  void tile_to_natural(const cplx* tile, real scale, View2D<cplx> out) const;
  /// tile = scale * natural-order spectrum `in`, in the spectral layout.
  void natural_to_tile(View2D<const cplx> in, real scale, cplx* tile) const;

  void forward_impl(View2D<cplx> field, const MultiplySpec* mul, real scale,
                    View2D<cplx> out) const;
  void inverse_impl(View2D<cplx> field, const MultiplySpec* mul, real scale) const;

  usize rows_ = 0;
  usize cols_ = 0;
  Plan1D row_plan_;  // length cols_ (transforms along x)
  Plan1D col_plan_;  // length rows_ (transforms along y)

  // Pool of tiles. Concurrent transforms each lease one (allocating on
  // first use), so sharing one plan across workers is race-free and
  // steady-state transforms allocate nothing.
  mutable std::mutex tile_mutex_;
  mutable std::vector<std::vector<cplx>> tile_pool_;
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
