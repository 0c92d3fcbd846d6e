// Table II reproduction: Gradient Decomposition vs Halo Voxel Exchange on
// the *small* Lead Titanate dataset (4158 probes, 1536^2 x 100 volume).
//
// Rows per paper: Nodes / GPUs / Memory footprint per GPU (GB) /
// Runtime (mins, 100 iterations) / Strong scaling efficiency. HVE cells
// show NA where the paste constraint is violated (the paper reports NA
// beyond 54 GPUs on this dataset).
//
// Memory comes from the geometric memory model; runtimes from the
// calibrated discrete-event schedule simulation (runtime/perfmodel.hpp says
// what is calibrated vs predicted).
#include "bench_util.hpp"
#include "data/io.hpp"

using namespace ptycho;
using namespace ptycho::bench;

namespace {

void run_table(const PaperDataset& dataset, const std::vector<long long>& gpu_counts,
               int iterations, const std::string& csv_path) {
  io::CsvWriter csv(csv_path);
  csv.header({"gpus", "gd_mem_gb", "gd_runtime_min", "gd_efficiency", "hve_mem_gb",
              "hve_runtime_min", "hve_efficiency", "hve_feasible"});

  TablePrinter gd_table({"Nodes", "GPUs", "Memory/GPU (GB)", "Runtime (mins)", "Scaling eff."});
  TablePrinter hve_table({"Nodes", "GPUs", "Memory/GPU (GB)", "Runtime (mins)", "Scaling eff."});

  double gd_base_time = 0.0;
  double hve_base_time = 0.0;
  int base_gpus = 0;

  for (long long gpus_ll : gpu_counts) {
    const int gpus = static_cast<int>(gpus_ll);

    // --- Gradient Decomposition --------------------------------------
    ModelCell gd(dataset, gpus, Strategy::kGradientDecomposition);
    rt::GdScheduleParams gd_params;
    gd_params.iterations = iterations;
    const rt::ScheduleResult gd_run = gd.perf(dataset).simulate_gd(gd_params);
    const double gd_minutes = gd_run.makespan_seconds / 60.0;
    if (base_gpus == 0) {
      base_gpus = gpus;
      gd_base_time = gd_minutes;
    }
    const double gd_eff = scaling_efficiency(gd_base_time, base_gpus, gd_minutes, gpus);
    gd_table.add_column({fmt_int(gpus / 6), fmt_int(gpus), fmt("%.2f", gd.memory.mean_gb()),
                         fmt("%.1f", gd_minutes), fmt("%.0f%%", gd_eff * 100.0)});

    // --- Halo Voxel Exchange ------------------------------------------
    ModelCell hve(dataset, gpus, Strategy::kHaloVoxelExchange);
    const bool feasible = hve.partition.hve_paste_feasible();
    double hve_minutes = 0.0;
    double hve_eff = 0.0;
    if (feasible) {
      rt::HveScheduleParams hve_params;
      hve_params.iterations = iterations;
      hve_minutes = hve.perf(dataset).simulate_hve(hve_params).makespan_seconds / 60.0;
      if (hve_base_time == 0.0) hve_base_time = hve_minutes;
      hve_eff = scaling_efficiency(hve_base_time, base_gpus, hve_minutes, gpus);
      hve_table.add_column({fmt_int(gpus / 6), fmt_int(gpus), fmt("%.2f", hve.memory.mean_gb()),
                            fmt("%.1f", hve_minutes), fmt("%.0f%%", hve_eff * 100.0)});
    } else {
      hve_table.add_column({fmt_int(gpus / 6), fmt_int(gpus), "NA", "NA", "NA"});
    }

    csv.row({static_cast<double>(gpus), gd.memory.mean_gb(), gd_minutes, gd_eff * 100.0,
             hve.memory.mean_gb(), feasible ? hve_minutes : -1.0,
             feasible ? hve_eff * 100.0 : -1.0, feasible ? 1.0 : 0.0});
  }

  std::printf("(a) Gradient Decomposition — %s\n", dataset.name.c_str());
  gd_table.print();
  std::printf("\n(b) Halo Voxel Exchange — same dataset\n");
  hve_table.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const int iterations = static_cast<int>(opts.get_int("iterations", 100));
  const std::vector<long long> gpus = opts.get_int_list("gpus", {6, 24, 54, 126, 198, 462});

  std::printf("=== Table II: small Lead Titanate dataset ===\n");
  std::printf("paper reference — GD: 2.53 GB / 360 min @6 GPUs -> 0.23 GB / 3.0 min @462;\n");
  std::printf("HVE: 2.80 GB / 463 min @6 -> NA past 54 GPUs\n\n");
  run_table(paper_small_dataset(), gpus, iterations, out_path(opts, "table2_small.csv"));
  std::printf("\nCSV written to %s\n", out_path(opts, "table2_small.csv").c_str());
  return 0;
}
