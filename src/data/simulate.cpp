#include "data/simulate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "fft/plan.hpp"

namespace ptycho {

std::vector<RArray2D> simulate_measurements(const MultisliceOperator& op, const Probe& probe,
                                            const FramedVolume& specimen,
                                            const ScanPattern& scan,
                                            const AcquisitionParams& acq) {
  const auto n = static_cast<index_t>(op.grid().probe_n);
  MultisliceWorkspace ws(n, specimen.slices());
  Rng rng(acq.noise_seed);

  std::vector<RArray2D> measurements;
  measurements.reserve(static_cast<usize>(scan.count()));
  for (const ProbeLocation& loc : scan.locations()) {
    PTYCHO_CHECK(specimen.frame.contains(loc.window),
                 "probe window " << loc.window << " escapes the specimen field");
    RArray2D mag(n, n);
    op.simulate_magnitude(probe, specimen, loc.window, ws, mag.view());

    if (acq.dose_electrons > 0.0) {
      // Scale intensities so they sum to the per-position dose, draw
      // Poisson counts, convert back to magnitudes.
      double total_intensity = 0.0;
      for (index_t y = 0; y < n; ++y) {
        for (index_t x = 0; x < n; ++x) {
          total_intensity += static_cast<double>(mag(y, x)) * static_cast<double>(mag(y, x));
        }
      }
      if (total_intensity > 0.0) {
        const double scale = acq.dose_electrons / total_intensity;
        for (index_t y = 0; y < n; ++y) {
          for (index_t x = 0; x < n; ++x) {
            const double intensity = static_cast<double>(mag(y, x)) *
                                     static_cast<double>(mag(y, x)) * scale;
            const double counts = static_cast<double>(rng.poisson(intensity));
            mag(y, x) = static_cast<real>(std::sqrt(counts / scale));
          }
        }
      }
    }
    measurements.push_back(std::move(mag));
  }
  return measurements;
}

Dataset make_synthetic_dataset(const DatasetSpec& spec, const SpecimenParams& specimen_params,
                               const AcquisitionParams& acq) {
  PTYCHO_REQUIRE(spec.scan.probe_n == static_cast<index_t>(spec.grid.probe_n),
                 "scan probe_n must match optics grid probe_n");
  PTYCHO_REQUIRE(fft::is_pow2(spec.grid.probe_n),
                 "grid.probe_n = " << spec.grid.probe_n << " is not a power of two");
  ScanPattern scan(spec.scan);
  Probe probe(spec.grid, spec.probe);

  Dataset dataset(spec, std::move(scan), std::move(probe));
  FramedVolume specimen =
      make_perovskite_specimen(dataset.scan.field(), spec.slices, spec.grid, specimen_params);

  MultisliceOperator op(spec.grid, spec.model);
  dataset.measurements =
      simulate_measurements(op, dataset.probe, specimen, dataset.scan, acq);
  dataset.ground_truth = std::move(specimen);
  return dataset;
}

}  // namespace ptycho
