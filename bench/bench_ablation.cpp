// Ablations of the solver's design choices:
//   (1) gradient-synchronization scheme: sweep (paper) vs direct-neighbor
//       vs global all-reduce — quality and traffic;
//   (2) HVE replication rings: memory/replication/seams trade-off;
//   (3) mesh shape: square vs flat vs tall decompositions;
//   (4) update mode: Alg. 1 SGD vs full-batch.
// Functional runs on the repro datasets (virtual cluster).
#include "bench_util.hpp"
#include "core/halo_voxel_exchange.hpp"
#include "core/seam_metric.hpp"
#include "partition/assignment.hpp"

using namespace ptycho;
using namespace ptycho::bench;

namespace {

std::uint64_t total_bytes(const rt::FabricStats& stats) {
  std::uint64_t bytes = 0;
  for (std::uint64_t b : stats.bytes_sent) bytes += b;
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const int iterations = static_cast<int>(opts.get_int("iterations", 8));
  const auto step = static_cast<real>(opts.get_double("step", 0.1));
  const std::string which = opts.get_string("dataset", "tiny");
  const Dataset dataset = build_repro_dataset(which);

  std::printf("=== Ablation studies (%s dataset, %d iterations) ===\n\n", which.c_str(),
              iterations);

  // (1) synchronization scheme.
  std::printf("(1) gradient synchronization scheme (4 ranks)\n");
  std::printf("%-22s %14s %14s %12s\n", "scheme", "final cost", "comm bytes", "wall (s)");
  struct SchemeCase {
    const char* name;
    SyncPolicy policy;
  };
  const SchemeCase schemes[] = {
      {"sweep (paper, APPP)", {PassScheme::kSweep, true}},
      {"direct neighbors", {PassScheme::kDirectNeighbors, true}},
      {"global all-reduce", {PassScheme::kSweep, false}},
  };
  for (const SchemeCase& sc : schemes) {
    GdConfig config;
    config.nranks = 4;
    config.iterations = iterations;
    config.step = step;
    config.sync = sc.policy;
    const ParallelResult result = reconstruct_gd(dataset, config);
    std::printf("%-22s %14.4g %14.3g %12.2f\n", sc.name, result.cost.last(),
                static_cast<double>(total_bytes(result.fabric)), result.wall_seconds);
  }

  // (2) HVE replication rings.
  std::printf("\n(2) HVE replication rings (4 ranks)\n");
  std::printf("%-8s %14s %16s %14s %12s\n", "rings", "final cost", "meas replication",
              "mem/rank (MB)", "seam ratio");
  GdConfig probe_cfg;
  probe_cfg.nranks = 4;
  const Partition seam_partition = make_gd_partition(dataset, probe_cfg);
  for (const int rings : {0, 1, 2}) {
    HveConfig config;
    config.nranks = 4;
    config.iterations = iterations;
    config.step = step;
    config.extra_rings = rings;
    if (!hve_feasible(dataset, config)) {
      std::printf("%-8d %14s\n", rings, "NA");
      continue;
    }
    const ParallelResult result = reconstruct_hve(dataset, config);
    const Partition partition = make_hve_partition(dataset, config);
    std::printf("%-8d %14.4g %16.2f %14.2f %12.3f\n", rings, result.cost.last(),
                partition.measurement_replication(), result.mean_peak_bytes / kMiB,
                measure_seams(result.volume, seam_partition).seam_ratio);
  }

  // (3) mesh shape at a fixed rank count.
  std::printf("\n(3) mesh shape (6 ranks)\n");
  std::printf("%-10s %14s %14s %14s\n", "mesh", "final cost", "comm bytes", "max halo px");
  for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{{2, 3}, {3, 2}, {1, 6}, {6, 1}}) {
    GdConfig config;
    config.nranks = 6;
    config.mesh_rows = rows;
    config.mesh_cols = cols;
    config.iterations = iterations;
    config.step = step;
    const ParallelResult result = reconstruct_gd(dataset, config);
    const Partition partition = make_gd_partition(dataset, config);
    std::printf("%dx%-8d %14.4g %14.3g %14lld\n", rows, cols, result.cost.last(),
                static_cast<double>(total_bytes(result.fabric)),
                static_cast<long long>(partition.max_halo_px()));
  }

  // (4) dose robustness: the Sec. II-B motivation for Maximum Likelihood
  // methods — reconstruction quality should degrade gracefully with dose.
  std::printf("\n(4) electron dose (4 ranks, shot noise)\n");
  std::printf("%-14s %14s %16s\n", "dose (e-/pos)", "final cost", "err vs truth");
  for (const double dose : {1.0e4, 1.0e5, 1.0e6, 0.0}) {
    const Dataset noisy = build_repro_dataset(which, dose);
    GdConfig config;
    config.nranks = 4;
    config.iterations = iterations;
    config.step = step;
    const ParallelResult result = reconstruct_gd(noisy, config);
    const double err = relative_rms_error(result.volume, noisy.ground_truth);
    if (dose > 0.0) {
      std::printf("%-14.3g %14.4g %16.4f\n", dose, result.cost.last(), err);
    } else {
      std::printf("%-14s %14.4g %16.4f\n", "noiseless", result.cost.last(), err);
    }
  }

  // (5) update mode.
  std::printf("\n(5) update mode (4 ranks)\n");
  std::printf("%-14s %14s %14s\n", "mode", "final cost", "reduction");
  for (const UpdateMode mode : {UpdateMode::kSgd, UpdateMode::kFullBatch}) {
    GdConfig config;
    config.nranks = 4;
    config.iterations = iterations;
    config.step = step;
    config.mode = mode;
    const ParallelResult result = reconstruct_gd(dataset, config);
    std::printf("%-14s %14.4g %14.4f\n", to_string(mode), result.cost.last(),
                result.cost.reduction());
  }
  return 0;
}
