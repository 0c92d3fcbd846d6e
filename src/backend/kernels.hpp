// Runtime-dispatched SIMD kernel backend.
//
// Every hot complex inner loop in the library (FFT butterflies, Hadamard/
// axpy tensor ops, the spectral multiply and the multislice backprop
// kernel) calls through the `Kernels` table returned by
// `kernels()`. The table is selected once, lazily, from:
//
//   1. an explicit `select("scalar"|"simd"|"auto")` call (CLI `--backend`),
//   2. else the `PTYCHO_BACKEND` environment variable,
//   3. else CPU detection ("auto"): AVX2 on x86-64, NEON on AArch64,
//      falling back to the portable scalar table.
//
// Bitwise contract: for every primitive, the SIMD implementation performs
// exactly the same IEEE-754 operations per element as the scalar one —
// same association, no fusing on either path (all backend translation
// units compile with -ffp-contract=off) — so switching backends never
// changes a single output bit. Tests enforce this (tests/test_backend.cpp)
// and it is what preserves the any-thread-count determinism guarantee of
// the batched sweep.
//
// Selection is not synchronized with running kernels: call `select` at
// process startup, before worker threads launch.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace ptycho::backend {

/// Function table of batched complex primitives. All pointers are over
/// contiguous, arbitrarily aligned arrays of `n` elements; `dst` may alias
/// the first source operand unless noted. Implementations must be bitwise
/// deterministic and lane-independent (element i depends only on inputs i).
struct Kernels {
  /// Short stable name for logs / JSON ("scalar", "avx2", "neon").
  const char* name;

  /// dst[i] = cmul(a[i], b[i]); dst may alias a.
  void (*cmul_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] = cmul_conj(a[i], b[i]) = a[i] * conj(b[i]); dst may alias a.
  void (*cmul_conj_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] += cmul_conj(a[i], b[i]).
  void (*cmul_conj_acc_lanes)(cplx* dst, const cplx* a, const cplx* b, usize n);

  /// dst[i] = cmul(src[i], alpha); dst may alias src.
  void (*scale_lanes)(cplx* dst, const cplx* src, cplx alpha, usize n);

  /// dst[i] += cmul(alpha, src[i]).
  void (*axpy_lanes)(cplx* dst, const cplx* src, cplx alpha, usize n);

  /// Radix-2 butterfly with one twiddle shared across lanes:
  /// t = cmul(w, b[i]); b[i] = a[i] - t; a[i] += t. a and b must not
  /// overlap. The FFT runs the radix-4 forms below; perfbench times this
  /// one as the backend's butterfly probe (backend.butterfly_mb_per_s).
  void (*butterfly_lanes)(cplx* a, cplx* b, cplx w, usize n);

  /// Radix-4 decimation-in-time butterfly with twiddles shared across
  /// lanes (the FFT's inverse): the fusion of two consecutive radix-2 DIT
  /// stages (quarter-lengths h and 2h) over bit-reversed input.
  ///   u1 = cmul(w1, x1[i]); u2 = cmul(w2, x2[i]); u3 = cmul(w3, x3[i])
  ///   s0 = x0[i] + u1; s1 = x0[i] - u1; s2 = u2 + u3; s3 = u2 - u3
  ///   r  = (conj_rot ? +i : -i) * s3   (exact re/im swap + sign flip)
  ///   x0[i] = s0 + s2; x2[i] = s0 - s2; x1[i] = s1 + r; x3[i] = s1 - r
  /// Callers pass already-conjugated twiddles for the inverse. The four
  /// operand arrays must be pairwise non-overlapping.
  void (*butterfly4_lanes)(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2, cplx w3,
                           bool conj_rot, usize n);

  /// Radix-4 decimation-in-frequency butterfly (the FFT's forward), the
  /// transpose of the DIT form above with the same twiddles: two radix-2
  /// DIF stages (quarter-lengths 2h and h) over natural-order input.
  ///   s0 = x0[i] + x2[i]; s1 = x0[i] - x2[i]
  ///   s2 = x1[i] + x3[i]; s3 = x1[i] - x3[i]
  ///   r  = (conj_rot ? +i : -i) * s3
  ///   x0[i] = s0 + s2;             x1[i] = cmul(w1, s0 - s2)
  ///   x2[i] = cmul(w2, s1 + r);    x3[i] = cmul(w3, s1 - r)
  void (*butterfly4_dif_lanes)(cplx* x0, cplx* x1, cplx* x2, cplx* x3, cplx w1, cplx w2,
                               cplx w3, bool conj_rot, usize n);

  /// Row-tiled Hadamard product between two strided 2-D tiles (the
  /// spectral multiply the 2-D FFT runs on its tile): for r < rows, c < cols
  ///   dst[r*dst_stride + c] = conj_b ? cmul_conj(a[...], b[...])
  ///                                  : cmul(a[r*a_stride + c], b[r*b_stride + c]).
  /// dst may alias a (same pointer and stride); b must not overlap dst.
  void (*cmul_rows_tiled)(cplx* dst, usize dst_stride, const cplx* a, usize a_stride,
                          const cplx* b, usize b_stride, bool conj_b, usize rows, usize cols);

  /// Fused multislice potential-model backprop step (one row):
  ///   gt        = cmul_conj(g[i], psi_in[i])
  ///   ist       = (-sigma * trans[i].imag(), sigma * trans[i].real())
  ///   grad_out[i] += cmul_conj(gt, ist)
  ///   g[i]      = cmul_conj(g[i], trans[i])
  void (*potential_backprop_lanes)(cplx* grad_out, cplx* g, const cplx* psi_in,
                                   const cplx* trans, real sigma, usize n);
};

/// The active table (lazily initialized as documented above).
[[nodiscard]] const Kernels& kernels();

/// The portable scalar table (always available; the reference semantics).
[[nodiscard]] const Kernels& scalar_kernels();

/// The SIMD table compiled into this binary, or nullptr when the build has
/// no vector backend for this architecture. Availability of the *pointer*
/// does not imply the CPU can run it — see simd_available().
[[nodiscard]] const Kernels* simd_kernels();

/// True when a SIMD table is compiled in AND the running CPU supports it.
[[nodiscard]] bool simd_available();

/// Force a backend: "scalar", "simd" or "auto" (empty string == "auto").
/// Returns false (and leaves the active table unchanged) for an unknown
/// name or for "simd" when simd_available() is false.
bool select(std::string_view name);

/// Name of the active table ("scalar", "avx2", "neon").
[[nodiscard]] const char* active_name();

}  // namespace ptycho::backend
