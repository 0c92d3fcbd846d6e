// The multi-slice forward operator G(p_i, V) of Eqn. (1) and its adjoint.
//
// Forward (Maiden/Humphry/Rodenburg 2012, ref [14] of the paper):
//   psi_0 = probe;   for each slice s:  psi <- Prop( psi .* t_s )
//   far field Psi = (1/n) FFT(psi_S);  simulated magnitudes |Psi|.
// The last slice's Prop ends with an inverse FFT that the far-field FFT
// undoes, so the operator elides that roundtrip and forms
// Psi = (1/n) H .* FFT(t_last .* psi) directly (H the propagator kernel);
// the adjoint mirrors it. This is the one operation sequence on every
// precision tier, so 4S - 2 FFTs run per cost-and-gradient evaluation.
// The per-probe cost is f_i(V) = sum_k ( |y_i[k]| - |Psi[k]| )^2 and the
// gradient dF/dV is obtained by reverse-mode differentiation through the
// slice chain. The gradient has support only inside the probe window —
// the "special property" (Sec. III) the whole decomposition rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "physics/probe.hpp"
#include "physics/propagator.hpp"
#include "tensor/compact.hpp"
#include "tensor/framed.hpp"
#include "tensor/ops.hpp"

namespace ptycho {

/// How the complex volume V parameterizes the per-slice transmittance.
enum class ObjectModel {
  kTransmittance,  ///< t_s = V_s directly (V is the complex transmittance)
  kPotential,      ///< t_s = exp(i * sigma * V_s) (V is the scattering potential)
};

/// Reusable per-thread buffers for one probe evaluation; sized for a given
/// probe window and slice count. Keeping these out of the operator makes
/// the operator shareable across ranks.
struct MultisliceWorkspace {
  CArray2D psi;                    ///< current wavefield (probe_n x probe_n)
  std::vector<CArray2D> psi_in;    ///< wavefield entering each slice (pre-multiply)
  std::vector<CArray2D> trans;     ///< transmittance of each slice over the window
  CArray2D far;                    ///< far-field wavefield FFT(psi_S)
  CArray2D grad;                   ///< backprop wavefield
  CArray2D scratch;

  /// Opt-in transmittance cache for ObjectModel::kPotential: when enabled,
  /// compute_transmittance skips the per-slice exp/cos/sin rebuild if the
  /// same (volume revision, window) repeats. Enable only on paths where
  /// every volume mutation between evaluations goes through apply_gradient
  /// (which bumps the revision) — the solver sweep loops qualify; ad-hoc
  /// voxel pokes in tests do not.
  bool cache_transmittance = false;
  std::uint64_t trans_revision = 0;  ///< revision ws.trans was built from (0 = none)
  Rect trans_window{};               ///< window ws.trans was built for

  /// Fast-tier compact transmittance cache (kNone on the strict tier):
  /// when set AND the cache above is engaged (kPotential + enabled), the
  /// cached planes persist as 16-bit payloads in `trans_c` — half the
  /// resident footprint and half the read bandwidth per hit — and each
  /// slice is decoded into `trans_scratch` at use. The f32 `trans` planes
  /// are then never allocated. Tolerance-gated like all fast-tier state.
  compact::Format compact_trans = compact::Format::kNone;
  std::vector<std::vector<std::uint16_t>> trans_c;  ///< encoded planes (2*n*n halves each)
  CArray2D trans_scratch;                           ///< per-use decode target (one plane)

  /// Fast-tier measurement decode target (lazily sized by the sweep when
  /// measurements are held compact; unused otherwise).
  RArray2D meas_scratch;

  MultisliceWorkspace() = default;
  MultisliceWorkspace(index_t probe_n, index_t slices,
                      compact::Format compact_trans = compact::Format::kNone);
};

/// One workspace per execution slot of a sweep scheduler. The pool is
/// sized once (on the constructing thread, so per-rank memory tracking
/// charges every buffer to the owning rank) and handed out by slot index —
/// workspace identity follows the slot, not the item, which is safe
/// because a workspace is pure scratch: per-item results never depend on
/// which slot (and therefore which workspace) evaluated them.
class WorkspacePool {
 public:
  WorkspacePool(index_t probe_n, index_t slices, int slots, bool cache_transmittance,
                compact::Format compact_trans = compact::Format::kNone);

  [[nodiscard]] int slots() const { return static_cast<int>(workspaces_.size()); }
  [[nodiscard]] MultisliceWorkspace& operator[](int slot) {
    return workspaces_[static_cast<usize>(slot)];
  }

 private:
  std::vector<MultisliceWorkspace> workspaces_;
};

struct MultisliceConfig {
  ObjectModel model = ObjectModel::kTransmittance;
  real sigma = real(1);  ///< interaction constant for ObjectModel::kPotential
};

class MultisliceOperator {
 public:
  MultisliceOperator(const OpticsGrid& grid, MultisliceConfig config = {});

  [[nodiscard]] const OpticsGrid& grid() const { return grid_; }
  [[nodiscard]] const MultisliceConfig& config() const { return config_; }
  [[nodiscard]] const Propagator& propagator() const { return propagator_; }

  /// Run the forward model for the probe positioned at global rect
  /// `window` (probe_n x probe_n, inside V.frame). Leaves the far-field
  /// wavefield in ws.far and the stored intermediates for backprop.
  void forward(const Probe& probe, const FramedVolume& volume, const Rect& window,
               MultisliceWorkspace& ws) const;

  /// Simulated magnitudes |G(p, V)| into `out` (probe_n x probe_n).
  void simulate_magnitude(const Probe& probe, const FramedVolume& volume, const Rect& window,
                          MultisliceWorkspace& ws, View2D<real> out) const;

  /// Cost f_i for measured magnitudes `y_mag` (requires a prior forward()).
  [[nodiscard]] double cost_from_far(View2D<const real> y_mag,
                                     const MultisliceWorkspace& ws) const;

  /// Full evaluation: forward + cost + gradient. The gradient of f_i with
  /// respect to V is *added* into `grad_out` over `window` (same frame
  /// semantics as `volume`). If `probe_grad_out` is non-null, the gradient
  /// of f_i with respect to the probe wavefield is *added* into it (the
  /// backpropagated wavefield entering slice 0 — joint object+probe
  /// refinement comes for free from the adjoint chain). Returns f_i.
  double cost_and_gradient(const Probe& probe, const FramedVolume& volume, const Rect& window,
                           View2D<const real> y_mag, FramedVolume& grad_out,
                           MultisliceWorkspace& ws,
                           View2D<cplx>* probe_grad_out = nullptr) const;

  /// Cost only (cheaper: no intermediates retained beyond the forward).
  double cost(const Probe& probe, const FramedVolume& volume, const Rect& window,
              View2D<const real> y_mag, MultisliceWorkspace& ws) const;

 private:
  /// Fill ws.trans[s] (or ws.trans_c[s] when the compact cache is active)
  /// from the volume window.
  void compute_transmittance(const FramedVolume& volume, const Rect& window,
                             MultisliceWorkspace& ws) const;

  /// True when this evaluation stores/reads the transmittance compactly.
  [[nodiscard]] bool compact_cache_active(const MultisliceWorkspace& ws) const;

  /// Slice transmittance for use in the forward/adjoint chain: the f32
  /// plane, or a decode of the compact plane into ws.trans_scratch (valid
  /// until the next slice is requested).
  [[nodiscard]] View2D<const cplx> slice_transmittance(MultisliceWorkspace& ws,
                                                       index_t s) const;

  OpticsGrid grid_;
  MultisliceConfig config_;
  Propagator propagator_;
};

}  // namespace ptycho
