// Calibrated discrete-event performance model.
//
// The paper's headline numbers (Tables II/III, Fig. 7) come from runs on
// 6..4158 V100 GPUs. This host has one CPU core, so wall-clock scaling at
// paper scale is *modeled*: the real per-rank workloads and the real
// message schedules of both algorithms (from the Partition geometry at
// paper dimensions) are replayed through an event simulation with a
// machine model (effective FFT throughput + cache-boost curve + link
// latency/bandwidth). One constant — effective_flops — is calibrated;
// every other cell of the tables is then a prediction of the model.
#pragma once

#include <vector>

#include "data/dataset.hpp"
#include "partition/tilegrid.hpp"

namespace ptycho::rt {

struct MachineModel {
  /// Effective flop/s of one GPU on the multislice FFT chain (captures
  /// kernel-launch and memory-bandwidth inefficiency at 1024^2 tiles).
  double effective_flops = 6.0e10;
  /// Cache model: per-rank speedup grows from 1 to cache_boost as the
  /// per-rank working set shrinks from ws_ref to cache_bytes (paper
  /// Sec. VI-C: L1 hit rate 44% -> 59% from 24 to 54 GPUs).
  double cache_bytes = 24.0e6;
  double cache_boost = 6.0;
  double ws_ref_bytes = 8.0e9;
  /// Link model (NVLink within node / EDR-IB across; effective mix).
  double link_latency = 6.0e-6;        ///< seconds per message
  double link_bandwidth = 2.5e10;      ///< bytes/second
  double msg_overhead = 4.0e-6;        ///< host-side per message
  /// Per-probe constant overhead (kernel launches etc.).
  double probe_overhead = 2.0e-4;
  /// Device memory bandwidth (tile update / buffer add costs).
  double mem_bandwidth = 8.0e11;
};

/// Per-rank accumulated time by category (Fig. 7b bars).
struct BreakdownEntry {
  double compute = 0.0;
  double wait = 0.0;
  double comm = 0.0;
  [[nodiscard]] double total() const { return compute + wait + comm; }
};

struct ScheduleResult {
  double makespan_seconds = 0.0;
  std::vector<BreakdownEntry> per_rank;
  double mean_cache_factor = 1.0;
  [[nodiscard]] BreakdownEntry mean() const;
};

struct GdScheduleParams {
  int iterations = 100;
  int passes_per_iteration = 1;  ///< bi-directional pass count per epoch
  bool appp = true;              ///< false: barrier + global gradient all-reduce
};

struct HveScheduleParams {
  int iterations = 100;
  int pastes_per_iteration = 1;
};

class PerfModel {
 public:
  /// `per_rank_bytes` is the modeled per-GPU working set (memory model);
  /// it feeds the cache-boost curve.
  PerfModel(MachineModel machine, const Partition& partition, const PaperDataset& dataset,
            std::vector<double> per_rank_bytes);

  [[nodiscard]] ScheduleResult simulate_gd(const GdScheduleParams& params) const;
  [[nodiscard]] ScheduleResult simulate_hve(const HveScheduleParams& params) const;

  /// Flops of one probe-gradient evaluation (forward + adjoint multislice
  /// at the detector resolution).
  [[nodiscard]] static double probe_gradient_flops(index_t fft_n, index_t slices);

  /// Seconds of compute for one probe on `rank` (cache factor applied).
  [[nodiscard]] double probe_seconds(int rank) const;

  [[nodiscard]] double cache_factor(int rank) const;

  /// Modeled time for one point-to-point message of `bytes`.
  [[nodiscard]] double message_seconds(double bytes) const;

 private:
  MachineModel machine_;
  const Partition& partition_;
  PaperDataset dataset_;
  std::vector<double> per_rank_bytes_;
};

}  // namespace ptycho::rt
