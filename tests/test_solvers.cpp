// Integration tests across the whole stack: serial vs decomposed solvers,
// convergence, seams, stitching, memory, HVE feasibility.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cost.hpp"
#include "core/reconstructor.hpp"
#include "core/seam_metric.hpp"
#include "core/stitcher.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

using testing::tiny_dataset;
using testing::tiny_noisy_dataset;

double volume_rel_diff(const FramedVolume& a, const FramedVolume& b) {
  double err = 0.0;
  double den = 0.0;
  for (index_t s = 0; s < a.slices(); ++s) {
    for (index_t y = 0; y < a.frame.h; ++y) {
      for (index_t x = 0; x < a.frame.w; ++x) {
        err += std::norm(std::complex<double>(a.data(s, y, x)) -
                         std::complex<double>(b.data(s, y, x)));
        den += std::norm(std::complex<double>(b.data(s, y, x)));
      }
    }
  }
  return std::sqrt(err / den);
}

TEST(SerialSolver, CostDecreases) {
  SerialConfig config;
  config.iterations = 6;
  config.step = real(0.1);
  SerialResult result = reconstruct_serial(tiny_dataset(), config);
  ASSERT_EQ(result.cost.values().size(), 6u);
  EXPECT_LT(result.cost.last(), result.cost.first());
  EXPECT_LT(result.cost.reduction(), 0.7);  // substantial progress expected
}

TEST(SerialSolver, RecoversGroundTruthDirection) {
  // After a few iterations the reconstruction should be closer to the
  // ground truth than the vacuum initial guess was.
  const Dataset& dataset = tiny_dataset();
  SerialConfig config;
  config.iterations = 8;
  config.step = real(0.1);
  SerialResult result = reconstruct_serial(dataset, config);
  FramedVolume vacuum = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  const double before = volume_rel_diff(vacuum, dataset.ground_truth);
  const double after = volume_rel_diff(result.volume, dataset.ground_truth);
  EXPECT_LT(after, before);
}

TEST(SerialSolver, WarmStartFromTruthStaysPut) {
  // Gradient at the ground truth (noiseless data) is ~0: one iteration
  // must not move the volume appreciably.
  const Dataset& dataset = tiny_dataset();
  SerialConfig config;
  config.iterations = 1;
  config.step = real(0.1);
  SerialResult result = reconstruct_serial(dataset, config, &dataset.ground_truth);
  EXPECT_LT(volume_rel_diff(result.volume, dataset.ground_truth), 5e-3);
  EXPECT_LT(result.cost.first(), 1e-3);
}

// --- the central correctness property -----------------------------------

class GdMatchesSerial : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GdMatchesSerial, FullBatchTrajectoriesIdentical) {
  const auto [rows, cols] = GetParam();
  const Dataset& dataset = tiny_dataset();

  SerialConfig serial_config;
  serial_config.iterations = 3;
  serial_config.step = real(0.1);
  serial_config.mode = UpdateMode::kFullBatch;
  SerialResult serial = reconstruct_serial(dataset, serial_config);

  GdConfig gd_config;
  gd_config.nranks = rows * cols;
  gd_config.mesh_rows = rows;
  gd_config.mesh_cols = cols;
  gd_config.iterations = 3;
  gd_config.step = real(0.1);
  gd_config.mode = UpdateMode::kFullBatch;
  ParallelResult gd = reconstruct_gd(dataset, gd_config);

  // Same probe schedule, same update rule, gradients assembled through the
  // passes: trajectories must agree to fp tolerance for ANY mesh.
  EXPECT_LT(volume_rel_diff(gd.volume, serial.volume), 2e-4)
      << "mesh " << rows << "x" << cols;
  // Cost histories agree too (cost is evaluated at the same points).
  ASSERT_EQ(gd.cost.values().size(), serial.cost.values().size());
  for (usize i = 0; i < gd.cost.values().size(); ++i) {
    EXPECT_NEAR(gd.cost.values()[i] / serial.cost.values()[i], 1.0, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, GdMatchesSerial,
                         ::testing::Values(std::pair<int, int>{1, 1},
                                           std::pair<int, int>{2, 2},
                                           std::pair<int, int>{3, 3},
                                           std::pair<int, int>{1, 4},
                                           std::pair<int, int>{4, 1},
                                           std::pair<int, int>{2, 3}));

TEST(GdSolver, FullBatchAllreduceMatchesSweep) {
  // APPP passes and the global all-reduce are different communication
  // schedules for the same math.
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  config.iterations = 2;
  config.step = real(0.1);
  config.mode = UpdateMode::kFullBatch;
  config.sync.appp = true;
  ParallelResult with_appp = reconstruct_gd(dataset, config);
  config.sync.appp = false;
  ParallelResult without_appp = reconstruct_gd(dataset, config);
  EXPECT_LT(volume_rel_diff(with_appp.volume, without_appp.volume), 1e-5);
}

TEST(GdSolver, SgdModeConverges) {
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  config.iterations = 6;
  config.step = real(0.1);
  config.mode = UpdateMode::kSgd;
  ParallelResult result = reconstruct_gd(dataset, config);
  EXPECT_LT(result.cost.last(), result.cost.first());
  EXPECT_LT(result.cost.reduction(), 0.7);
}

TEST(GdSolver, ApproachesGroundTruthFromVacuum) {
  // Correctness on what users see: the reconstruction's error against the
  // simulated ground truth, not a falling cost alone. A 4-rank SGD run
  // from the vacuum guess (error 0.1057) measures 0.0969 after 10
  // iterations; 6 iterations measure 0.0991, so a run that stalls or
  // loses gradient signal fails the bound.
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  config.iterations = 10;
  config.step = real(0.1);
  ParallelResult result = reconstruct_gd(dataset, config);
  EXPECT_LT(relative_rms_error(result.volume, dataset.ground_truth), 0.0985);
}

TEST(GdSolver, ConvergesOnNoisyData) {
  GdConfig config;
  config.nranks = 4;
  config.iterations = 5;
  config.step = real(0.1);
  ParallelResult result = reconstruct_gd(tiny_noisy_dataset(), config);
  EXPECT_LT(result.cost.last(), result.cost.first());
}

TEST(GdSolver, MemoryPerRankDecreasesWithRanks) {
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.iterations = 1;
  config.record_cost = false;
  config.nranks = 1;
  ParallelResult one = reconstruct_gd(dataset, config);
  config.nranks = 9;
  ParallelResult nine = reconstruct_gd(dataset, config);
  EXPECT_LT(nine.mean_peak_bytes, one.mean_peak_bytes);
  // The paper's headline: decomposition reduces per-GPU memory by a large
  // factor; on 9 tiles the mean tile footprint should be well under half.
  EXPECT_LT(nine.mean_peak_bytes / one.mean_peak_bytes, 0.5);
}

TEST(GdSolver, BreakdownAndFabricPopulated) {
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  config.iterations = 2;
  ParallelResult result = reconstruct_gd(dataset, config);
  ASSERT_EQ(result.breakdown.size(), 4u);
  for (const auto& entry : result.breakdown) EXPECT_GT(entry.compute, 0.0);
  // Passes moved actual bytes.
  std::uint64_t total_bytes = 0;
  for (std::uint64_t b : result.fabric.bytes_sent) total_bytes += b;
  EXPECT_GT(total_bytes, 0u);
}

TEST(GdSolver, PassesPerIterationVariantsConverge) {
  // Fig. 9: communication frequency affects convergence mildly; all
  // settings must still converge.
  const Dataset& dataset = tiny_dataset();
  for (const int passes : {1, 2, 6}) {
    GdConfig config;
    config.nranks = 4;
    config.iterations = 4;
    config.step = real(0.1);
    config.passes_per_iteration = passes;
    ParallelResult result = reconstruct_gd(dataset, config);
    EXPECT_LT(result.cost.last(), result.cost.first()) << "passes=" << passes;
  }
}

TEST(GdSolver, DirectSchemeWorksAtLowOverlapMesh) {
  // On a small mesh (tile >> probe window) the Sec. III direct scheme is
  // sufficient and must converge like the sweep.
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 2;
  config.iterations = 3;
  config.step = real(0.1);
  config.mode = UpdateMode::kFullBatch;
  config.sync.scheme = PassScheme::kDirectNeighbors;
  ParallelResult direct = reconstruct_gd(dataset, config);
  config.sync.scheme = PassScheme::kSweep;
  ParallelResult sweep = reconstruct_gd(dataset, config);
  EXPECT_LT(volume_rel_diff(direct.volume, sweep.volume), 1e-4);
}

// --- Halo Voxel Exchange baseline ----------------------------------------

TEST(HveSolver, ConvergesOnTinyDataset) {
  HveConfig config;
  config.nranks = 4;
  config.iterations = 5;
  config.step = real(0.1);
  ParallelResult result = reconstruct_hve(tiny_dataset(), config);
  EXPECT_LT(result.cost.last(), result.cost.first());
}

TEST(HveSolver, InfeasibleAtHighRankCount) {
  // Tiles shrink below the halo width: the paper's "NA" regime.
  HveConfig config;
  config.nranks = 36;
  config.mesh_rows = 6;
  config.mesh_cols = 6;
  config.iterations = 1;
  EXPECT_FALSE(hve_feasible(tiny_dataset(), config));
  EXPECT_THROW((void)reconstruct_hve(tiny_dataset(), config), Error);
}

TEST(HveSolver, UsesMoreMemoryThanGd) {
  const Dataset& dataset = tiny_dataset();
  GdConfig gd_config;
  gd_config.nranks = 4;
  gd_config.iterations = 1;
  gd_config.record_cost = false;
  ParallelResult gd = reconstruct_gd(dataset, gd_config);
  HveConfig hve_config;
  hve_config.nranks = 4;
  hve_config.iterations = 1;
  hve_config.record_cost = false;
  ParallelResult hve = reconstruct_hve(dataset, hve_config);
  EXPECT_GT(hve.mean_peak_bytes, gd.mean_peak_bytes);
}

TEST(HveSolver, SeamsWorseThanGdWhenReplicationInsufficient) {
  // The Fig. 8 claim, quantified. Voxel pasting creates persistent border
  // discontinuities whenever the replicated probe set does not cover every
  // overlap contribution — the generic situation at the paper's overlap
  // ratios and tile counts. (On this tiny 6x6 scan, rings >= 1 happens to
  // replicate nearly the whole scan, which hides the effect — so we test
  // the insufficient-replication regime explicitly and check full
  // replication separately below.)
  const Dataset& dataset = tiny_dataset();
  const int iterations = 15;
  const real step = real(0.1);

  GdConfig gd_config;
  gd_config.nranks = 9;
  gd_config.mesh_rows = 3;
  gd_config.mesh_cols = 3;
  gd_config.iterations = iterations;
  gd_config.step = step;
  ParallelResult gd = reconstruct_gd(dataset, gd_config);

  HveConfig hve_config;
  hve_config.nranks = 9;
  hve_config.mesh_rows = 3;
  hve_config.mesh_cols = 3;
  hve_config.iterations = iterations;
  hve_config.step = step;
  hve_config.extra_rings = 0;
  hve_config.local_epochs = 2;
  ParallelResult hve = reconstruct_hve(dataset, hve_config);

  const Partition partition = make_gd_partition(dataset, gd_config);
  const SeamReport gd_seams = measure_seams(gd.volume, partition);
  const SeamReport hve_seams = measure_seams(hve.volume, partition);
  EXPECT_GT(hve_seams.seam_ratio, 3.0);                    // visible seams
  EXPECT_GT(hve_seams.seam_ratio, 2.0 * gd_seams.seam_ratio);
  EXPECT_LT(gd_seams.seam_ratio, 4.0);                     // GD stays near background
}

TEST(HveSolver, FullReplicationHidesSeamsOnTinyScan) {
  // Control for the test above: when the replicated rings cover the whole
  // scan (possible only on toy problems), HVE borders are consistent.
  const Dataset& dataset = tiny_dataset();
  HveConfig config;
  config.nranks = 4;
  config.mesh_rows = 2;
  config.mesh_cols = 2;
  config.iterations = 15;
  config.step = real(0.1);
  config.extra_rings = 2;
  ParallelResult hve = reconstruct_hve(dataset, config);
  GdConfig gd_config;
  gd_config.nranks = 4;
  gd_config.mesh_rows = 2;
  gd_config.mesh_cols = 2;
  const Partition partition = make_gd_partition(dataset, gd_config);
  EXPECT_LT(measure_seams(hve.volume, partition).seam_ratio, 3.0);
}

TEST(HveSolver, ReconstructionQualityTracksSerial) {
  // HVE converges to a usable reconstruction (its historical role) even
  // though it seams; error vs ground truth must improve over vacuum.
  const Dataset& dataset = tiny_dataset();
  HveConfig config;
  config.nranks = 4;
  config.iterations = 6;
  config.step = real(0.1);
  ParallelResult result = reconstruct_hve(dataset, config);
  FramedVolume vacuum = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  EXPECT_LT(volume_rel_diff(result.volume, dataset.ground_truth),
            volume_rel_diff(vacuum, dataset.ground_truth));
}

// --- facade, stitcher, metrics -------------------------------------------

TEST(Reconstructor, DispatchesAllMethods) {
  const Dataset& dataset = tiny_dataset();
  Reconstructor reconstructor(dataset);
  for (const Method method :
       {Method::kSerial, Method::kGradientDecomposition, Method::kHaloVoxelExchange}) {
    ReconstructionRequest request;
    request.method = method;
    request.nranks = 4;
    request.iterations = 2;
    request.step = real(0.1);
    ReconstructionOutcome outcome = reconstructor.run(request);
    EXPECT_EQ(outcome.volume.frame, dataset.field()) << to_string(method);
    EXPECT_FALSE(outcome.cost.empty()) << to_string(method);
    EXPECT_LE(outcome.cost.last(), outcome.cost.first() * 1.05) << to_string(method);
  }
}

TEST(Stitcher, SerialStitchAssemblesOwnedRegions) {
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  const Partition partition = make_gd_partition(dataset, config);
  std::vector<FramedVolume> tiles;
  for (int r = 0; r < 4; ++r) {
    FramedVolume tile(2, partition.tile(r).extended);
    tile.data.fill(cplx(static_cast<real>(r + 1), 0));
    tiles.push_back(std::move(tile));
  }
  FramedVolume full = stitch_serial(partition, tiles);
  for (int r = 0; r < 4; ++r) {
    const Rect& owned = partition.tile(r).owned;
    EXPECT_EQ(full.at_global(0, owned.y0, owned.x0), cplx(static_cast<real>(r + 1), 0));
    EXPECT_EQ(full.at_global(1, owned.y1() - 1, owned.x1() - 1),
              cplx(static_cast<real>(r + 1), 0));
  }
}

TEST(SeamMetric, DetectsSyntheticSeam) {
  const Dataset& dataset = tiny_dataset();
  GdConfig config;
  config.nranks = 4;
  config.mesh_rows = 2;
  config.mesh_cols = 2;
  const Partition partition = make_gd_partition(dataset, config);

  // Smooth volume: no seam.
  FramedVolume smooth(2, partition.field());
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < partition.field().h; ++y) {
      for (index_t x = 0; x < partition.field().w; ++x) {
        smooth.data(s, y, x) = cplx(static_cast<real>(std::sin(0.05 * static_cast<double>(y + x))), 0);
      }
    }
  }
  const SeamReport smooth_report = measure_seams(smooth, partition);
  EXPECT_LT(smooth_report.seam_ratio, 3.0);

  // Inject a discontinuity exactly at the internal borders.
  FramedVolume seamed = smooth.clone();
  for (const TileSpec& tile : partition.tiles()) {
    const real bump = static_cast<real>(tile.rank) * real(0.3);
    for (index_t s = 0; s < 2; ++s) {
      for (index_t y = tile.owned.y0; y < tile.owned.y1(); ++y) {
        for (index_t x = tile.owned.x0; x < tile.owned.x1(); ++x) {
          seamed.at_global(s, y, x) += cplx(bump, 0);
        }
      }
    }
  }
  const SeamReport seamed_report = measure_seams(seamed, partition);
  EXPECT_GT(seamed_report.seam_ratio, 10.0);
  EXPECT_GT(seamed_report.border_lines, 0);
}

TEST(SeamMetric, RelativeRmsError) {
  FramedVolume a(1, Rect{0, 0, 4, 4});
  FramedVolume b(1, Rect{0, 0, 4, 4});
  a.data.fill(cplx(1, 0));
  b.data.fill(cplx(1, 0));
  EXPECT_DOUBLE_EQ(relative_rms_error(a, b), 0.0);
  a.data(0, 0, 0) = cplx(2, 0);
  EXPECT_GT(relative_rms_error(a, b), 0.0);
}

TEST(CostHistory, Utilities) {
  CostHistory history;
  history.record(100.0);
  history.record(50.0);
  history.record(60.0);  // overshoot
  history.record(10.0);
  EXPECT_DOUBLE_EQ(history.reduction(), 0.1);
  EXPECT_EQ(history.iterations_to_fraction(0.5), 1);
  EXPECT_EQ(history.iterations_to_fraction(0.01), -1);
  EXPECT_NEAR(history.max_overshoot(), 0.2, 1e-12);
}

TEST(TotalCost, MatchesSolverRecordedCost) {
  // total_cost at the vacuum guess equals the first recorded sweep cost in
  // full-batch mode (V unchanged during the sweep).
  const Dataset& dataset = tiny_dataset();
  GradientEngine engine(dataset);
  FramedVolume vacuum = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  const double direct = total_cost(engine, vacuum);

  SerialConfig config;
  config.iterations = 1;
  config.mode = UpdateMode::kFullBatch;
  SerialResult result = reconstruct_serial(dataset, config);
  EXPECT_NEAR(result.cost.first() / direct, 1.0, 1e-5);
}

}  // namespace
}  // namespace ptycho
