// Table I reproduction: dataset sizes for measurements and reconstructions
// — the paper's two Lead Titanate datasets, plus the scaled repro datasets
// this build actually reconstructs.
#include "bench_util.hpp"

using namespace ptycho;
using namespace ptycho::bench;

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  std::printf("=== Table I: dataset sizes ===\n\n");

  TablePrinter paper({"Sample", "Measurements y size", "Reconstruction V size",
                      "Voxel size (pm^3)", "Measurement bytes", "Volume bytes"},
                     26);
  for (const PaperDataset& d : {paper_small_dataset(), paper_large_dataset()}) {
    char meas[64];
    std::snprintf(meas, sizeof meas, "%lld x %lld x %lld", static_cast<long long>(d.meas_n),
                  static_cast<long long>(d.meas_n), static_cast<long long>(d.probes));
    char vol[64];
    std::snprintf(vol, sizeof vol, "%lld x %lld x %lld", static_cast<long long>(d.vol_y),
                  static_cast<long long>(d.vol_x), static_cast<long long>(d.slices));
    char voxel[64];
    std::snprintf(voxel, sizeof voxel, "%.0f x %.0f x %.0f", d.dx_pm, d.dx_pm, d.dz_pm);
    paper.add_column({d.name, meas, vol, voxel,
                      fmt("%.2f GiB", static_cast<double>(d.measurement_bytes()) / kGiB),
                      fmt("%.2f GiB", static_cast<double>(d.volume_bytes()) / kGiB)});
  }
  std::printf("paper-scale datasets (modeled):\n");
  paper.print();

  std::printf("\nscaled repro datasets (functionally reconstructed in this build):\n");
  TablePrinter repro({"Sample", "Probe locations", "Diffraction size", "Volume size",
                      "Overlap ratio", "Measurement bytes", "Volume bytes"},
                     20);
  for (const DatasetSpec& spec : {repro_tiny_spec(), repro_small_spec(), repro_large_spec()}) {
    ScanPattern scan(spec.scan);
    char meas[64];
    std::snprintf(meas, sizeof meas, "%lld x %lld", static_cast<long long>(spec.grid.probe_n),
                  static_cast<long long>(spec.grid.probe_n));
    char vol[64];
    std::snprintf(vol, sizeof vol, "%lld x %lld x %lld",
                  static_cast<long long>(scan.field().h),
                  static_cast<long long>(scan.field().w),
                  static_cast<long long>(spec.slices));
    const double meas_bytes = static_cast<double>(scan.count()) *
                              static_cast<double>(spec.grid.probe_n * spec.grid.probe_n) *
                              sizeof(real);
    const double vol_bytes = static_cast<double>(scan.field().area()) *
                             static_cast<double>(spec.slices) * sizeof(cplx);
    repro.add_column({spec.name, fmt_int(scan.count()), meas, vol,
                      fmt("%.0f%%", scan.overlap_ratio() * 100.0),
                      fmt("%.1f MiB", meas_bytes / kMiB), fmt("%.1f MiB", vol_bytes / kMiB)});
  }
  repro.print();
  return 0;
}
