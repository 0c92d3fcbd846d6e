// Synthetic perovskite specimen generator.
//
// Stand-in for the paper's Lead Titanate (PbTiO3) samples: a square
// perovskite lattice (heavy corner atoms, lighter body-center atom,
// oxygen sites) rendered as Gaussian phase bumps with mild absorption,
// with per-slice positional jitter so slices differ (exercising the 3-D
// multi-slice path).
#pragma once

#include "physics/grid.hpp"
#include "tensor/framed.hpp"

#include <cstdint>

namespace ptycho {

struct SpecimenParams {
  double lattice_pm = 390.0;     ///< PbTiO3 a-axis ≈ 3.9 Å
  double atom_sigma_pm = 35.0;   ///< Gaussian width of an atomic column
  double heavy_phase = 0.60;     ///< Pb-column peak phase (rad)
  double center_phase = 0.35;    ///< Ti-column peak phase
  double oxygen_phase = 0.15;    ///< O-column peak phase
  double absorption = 0.02;      ///< peak amplitude loss at a heavy column
  double jitter_pm = 6.0;        ///< per-slice random displacement of columns
  std::uint64_t seed = 42;
};

/// Generate the complex transmittance volume over `field` with `slices`
/// slices. The returned volume uses the transmittance object model
/// (t = exp(i*phase) * (1 - absorption)), i.e. feed it to
/// MultisliceOperator with ObjectModel::kTransmittance.
[[nodiscard]] FramedVolume make_perovskite_specimen(const Rect& field, index_t slices,
                                                    const OpticsGrid& grid,
                                                    const SpecimenParams& params = {});

/// A featureless "vacuum" volume (transmittance 1 everywhere) — the usual
/// initial guess for reconstruction.
[[nodiscard]] FramedVolume make_vacuum_volume(const Rect& field, index_t slices);

}  // namespace ptycho
