// Analytic per-GPU memory model at paper scale (Tables II/III memory rows).
//
// The model is pure geometry: it builds the same Partition the solver
// would use, but for the paper's dataset dimensions, and counts the bytes
// a rank must resident-allocate:
//   - tile_buffers complex tile-sized arrays (V_k, AccBuf, per-probe
//     gradient, update scratch, ...) over the rank's *extended* rect,
//   - the rank's (own + replicated) measurement frames at the effective
//     compute-window resolution,
//   - the multislice workspace (per-slice intermediates for backprop).
// The effective window is the probe-disc footprint (2 x 600 pm in the
// paper = 120 px at 10 pm/px) — production codes crop the object patch
// and bin the detector to this support, which is also what makes the
// paper's tiny 0.18 GB/GPU at 4158 GPUs possible at all (a full 1024^2
// per-slice workspace alone would exceed it).
#pragma once

#include <vector>

#include "data/dataset.hpp"
#include "partition/tilegrid.hpp"

namespace ptycho {

struct PaperMemoryConfig {
  /// Complex tile-sized buffers resident per rank.
  int tile_buffers = 6;
  /// Effective compute window (probe-disc footprint) in pixels.
  index_t eff_window_px = 120;
  /// HVE probe-replication rings.
  int hve_extra_rings = 2;
};

struct MemoryEstimate {
  std::vector<double> per_rank_bytes;
  double mean_bytes = 0.0;
  double max_bytes = 0.0;
  [[nodiscard]] double mean_gb() const { return mean_bytes / (1024.0 * 1024.0 * 1024.0); }
  [[nodiscard]] double max_gb() const { return max_bytes / (1024.0 * 1024.0 * 1024.0); }
};

/// Scan pattern matching the paper dataset at the effective window size:
/// same probe count and grid, raster step chosen so probe centers span the
/// full reconstruction field.
[[nodiscard]] ScanPattern make_paper_scan(const PaperDataset& dataset, index_t eff_window_px);

/// Partition of the paper-scale field for `nranks` GPUs.
[[nodiscard]] Partition make_paper_partition(const ScanPattern& scan, int nranks,
                                             Strategy strategy, int hve_extra_rings = 2);

/// The memory model proper.
[[nodiscard]] MemoryEstimate estimate_paper_memory(const Partition& partition,
                                                   const PaperDataset& dataset,
                                                   const PaperMemoryConfig& config = {});

}  // namespace ptycho
