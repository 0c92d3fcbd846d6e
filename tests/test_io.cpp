// data/io round-trip coverage: PGM pixel mapping (including the min==max
// mid-gray edge case), phase PGM, CSV output, the raw binary volume
// snapshot read-back, and the dataset reader's header validation against
// hostile files.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/io.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;

class IoScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ptycho_io_test").string();
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

struct Pgm {
  index_t width = 0;
  index_t height = 0;
  int maxval = 0;
  std::vector<unsigned char> pixels;
};

Pgm read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string magic;
  Pgm pgm;
  in >> magic >> pgm.width >> pgm.height >> pgm.maxval;
  EXPECT_EQ(magic, "P5");
  in.get();  // the single whitespace byte after maxval
  pgm.pixels.resize(static_cast<usize>(pgm.width * pgm.height));
  in.read(reinterpret_cast<char*>(pgm.pixels.data()),
          static_cast<std::streamsize>(pgm.pixels.size()));
  EXPECT_TRUE(in.good()) << "truncated " << path;
  return pgm;
}

TEST_F(IoScratch, PgmMapsMinMaxLinearly) {
  RArray2D image(2, 2);
  image(0, 0) = real(-1);
  image(0, 1) = real(0);
  image(1, 0) = real(1);
  image(1, 1) = real(3);
  io::write_pgm(path("linear.pgm"), image.view());
  const Pgm pgm = read_pgm(path("linear.pgm"));
  ASSERT_EQ(pgm.width, 2);
  ASSERT_EQ(pgm.height, 2);
  EXPECT_EQ(pgm.maxval, 255);
  EXPECT_EQ(pgm.pixels[0], 0u);    // min -> black
  EXPECT_EQ(pgm.pixels[3], 255u);  // max -> white
  // Interior values map linearly: (0 - (-1)) / 4 * 255 = 63.75 -> 63.
  EXPECT_EQ(pgm.pixels[1], 63u);
  EXPECT_EQ(pgm.pixels[2], 127u);
}

TEST_F(IoScratch, PgmConstantImageIsMidGray) {
  RArray2D image(3, 4);
  image.fill(real(7.5));
  io::write_pgm(path("flat.pgm"), image.view());
  const Pgm pgm = read_pgm(path("flat.pgm"));
  ASSERT_EQ(pgm.pixels.size(), 12u);
  for (unsigned char p : pgm.pixels) EXPECT_EQ(p, 128u);
}

TEST_F(IoScratch, PhasePgmSpansThePhaseRange) {
  CArray2D slice(1, 3);
  slice(0, 0) = cplx(1, 0);   // phase 0
  slice(0, 1) = cplx(0, 1);   // phase pi/2
  slice(0, 2) = cplx(-1, 0);  // phase pi
  io::write_phase_pgm(path("phase.pgm"), slice.view());
  const Pgm pgm = read_pgm(path("phase.pgm"));
  ASSERT_EQ(pgm.pixels.size(), 3u);
  EXPECT_EQ(pgm.pixels[0], 0u);    // smallest phase -> black
  EXPECT_EQ(pgm.pixels[2], 255u);  // largest phase -> white
  EXPECT_EQ(pgm.pixels[1], 127u);  // halfway
}

TEST_F(IoScratch, CsvHeaderAndRows) {
  {
    io::CsvWriter csv(path("series.csv"));
    csv.header({"iteration", "cost"});
    csv.row({0, 1.5});
    csv.row({1, 0.25});
    csv.raw_row("2,custom");
  }
  std::ifstream in(path("series.csv"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "iteration,cost");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1.5");
  std::getline(in, line);
  EXPECT_EQ(line, "1,0.25");
  std::getline(in, line);
  EXPECT_EQ(line, "2,custom");
  EXPECT_FALSE(std::getline(in, line));
}

TEST_F(IoScratch, VolumeRoundTripPreservesFrameAndData) {
  FramedVolume volume(2, Rect{-3, 5, 4, 6});
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 4; ++y) {
      for (index_t x = 0; x < 6; ++x) {
        volume.data(s, y, x) = cplx(static_cast<real>(s * 100 + y * 10 + x),
                                    static_cast<real>(-x));
      }
    }
  }
  io::save_volume(path("vol.bin"), volume);
  const FramedVolume loaded = io::load_volume(path("vol.bin"));
  ASSERT_EQ(loaded.frame, volume.frame);
  ASSERT_EQ(loaded.slices(), 2);
  for (index_t s = 0; s < 2; ++s) {
    for (index_t y = 0; y < 4; ++y) {
      for (index_t x = 0; x < 6; ++x) {
        EXPECT_EQ(loaded.data(s, y, x), volume.data(s, y, x));
      }
    }
  }
}

TEST_F(IoScratch, VolumeLoaderRejectsGarbage) {
  {
    std::ofstream out(path("junk.bin"), std::ios::binary);
    out << "this is not a volume";
  }
  EXPECT_THROW((void)io::load_volume(path("junk.bin")), Error);
}

// ---- hostile dataset headers ------------------------------------------------

/// The dataset header as io::save_dataset lays it out (magic, name, then
/// fixed-width fields), defaulting to a small valid 2 x 3 scan of 8 x 8
/// frames. Tests corrupt one field at a time.
struct DatasetHeader {
  std::string name = "hostile";
  std::uint64_t u[8] = {2, 3, 4, 0, 1, 8, 8, 0};  // rows cols step step_y margin scan.n grid.n
  double f[6] = {10.0, 125.0, 2.5, 30.0, 500.0, 0.0};  // dx dz lambda aperture defocus cs
  std::uint64_t slices = 2;
  std::uint64_t model = 0;
  double sigma = 1.0;
  std::uint64_t count = 6;
};

enum : int { kRows, kCols, kStep, kStepY, kMargin, kScanN, kGridN };

void write_dataset(const std::string& path, const DatasetHeader& h, std::uint64_t frames,
                   std::uint64_t frame_n = 8) {
  std::ofstream out(path, std::ios::binary);
  auto u64 = [&](std::uint64_t v) { out.write(reinterpret_cast<const char*>(&v), sizeof v); };
  auto f64 = [&](double v) { out.write(reinterpret_cast<const char*>(&v), sizeof v); };
  u64(0x5054594348444154ULL);  // "PTYCHDAT"
  u64(h.name.size());
  out.write(h.name.data(), static_cast<std::streamsize>(h.name.size()));
  for (int i = 0; i < 7; ++i) u64(h.u[i]);
  for (const double v : h.f) f64(v);
  u64(h.slices);
  u64(h.model);
  f64(h.sigma);
  u64(h.count);
  const std::vector<real> frame(frame_n * frame_n, real(1));
  for (std::uint64_t i = 0; i < frames; ++i) {
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() * sizeof(real)));
  }
}

TEST_F(IoScratch, HandWrittenDatasetHeaderLoads) {
  // Baseline for the hostile cases below: the unmodified header is valid.
  write_dataset(path("ok.ptyd"), DatasetHeader{}, 6);
  const Dataset d = io::load_dataset(path("ok.ptyd"));
  EXPECT_EQ(d.probe_count(), 6);
  EXPECT_EQ(d.measurements.size(), 6u);
  EXPECT_EQ(d.spec.grid.probe_n, 8u);
}

TEST_F(IoScratch, HugeProbeWindowThrowsInsteadOfCrashing) {
  // grid.probe_n = 2^40 used to segfault `ptycho info`.
  DatasetHeader h;
  h.u[kGridN] = h.u[kScanN] = 1ull << 40;
  write_dataset(path("probe.ptyd"), h, 6);
  EXPECT_THROW((void)io::load_dataset(path("probe.ptyd")), Error);
}

TEST_F(IoScratch, ProbeWindowMustBeAPowerOfTwo) {
  DatasetHeader h;
  h.u[kGridN] = h.u[kScanN] = 12;
  write_dataset(path("npow2.ptyd"), h, 6, 12);
  EXPECT_THROW((void)io::load_dataset(path("npow2.ptyd")), Error);
}

TEST_F(IoScratch, HugeScanThrowsInsteadOfBadAlloc) {
  // A huge scan.rows used to abort with an uncaught std::bad_alloc.
  DatasetHeader h;
  h.u[kRows] = 1ull << 40;
  h.count = h.u[kRows] * h.u[kCols];
  write_dataset(path("rows.ptyd"), h, 6);
  EXPECT_THROW((void)io::load_dataset(path("rows.ptyd")), Error);
}

TEST_F(IoScratch, ScanProductOverflowIsRejected) {
  // 2^32 x 2^32 wraps to 0 in 64 bits; a matching zero count must not
  // sneak an empty-but-enormous scan past the reader.
  DatasetHeader h;
  h.u[kRows] = h.u[kCols] = 1ull << 32;
  h.count = 0;
  write_dataset(path("overflow.ptyd"), h, 0);
  EXPECT_THROW((void)io::load_dataset(path("overflow.ptyd")), Error);
}

TEST_F(IoScratch, ObjectModelOutOfRangeIsRejected) {
  DatasetHeader h;
  h.model = 7;
  write_dataset(path("model.ptyd"), h, 6);
  EXPECT_THROW((void)io::load_dataset(path("model.ptyd")), Error);
}

TEST_F(IoScratch, PayloadLargerThanFileIsRejected) {
  // Header and count agree, but only 5 of the 6 promised frames exist.
  write_dataset(path("short.ptyd"), DatasetHeader{}, 5);
  EXPECT_THROW((void)io::load_dataset(path("short.ptyd")), Error);
}

TEST_F(IoScratch, OversizedScannedFieldIsRejected) {
  DatasetHeader h;
  h.u[kStep] = 1ull << 20;
  write_dataset(path("field.ptyd"), h, 6);
  EXPECT_THROW((void)io::load_dataset(path("field.ptyd")), Error);
}

TEST_F(IoScratch, EveryIntegerFieldAtZeroOrMaxIsRejectedOrValid) {
  // Each field at its extremes either loads (where 0 is meaningful:
  // step_y, margin, model) or throws ptycho::Error; never a crash.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (int field = 0; field < 10; ++field) {
    for (const std::uint64_t v : {std::uint64_t{0}, kMax}) {
      DatasetHeader h;
      if (field < 7) h.u[field] = v;
      if (field == 7) h.slices = v;
      if (field == 8) h.model = v;
      if (field == 9) h.count = v;
      write_dataset(path("field_sweep.ptyd"), h, 6);
      const bool zero_ok = v == 0 && (field == kStepY || field == kMargin || field == 8);
      if (zero_ok) {
        EXPECT_NO_THROW((void)io::load_dataset(path("field_sweep.ptyd"))) << field;
      } else {
        EXPECT_THROW((void)io::load_dataset(path("field_sweep.ptyd")), Error)
            << "field " << field << " = " << v;
      }
    }
  }
}

TEST_F(IoScratch, NonFiniteOpticsAreRejected) {
  for (int field = 0; field < 6; ++field) {
    DatasetHeader h;
    h.f[field] = std::numeric_limits<double>::quiet_NaN();
    write_dataset(path("nan.ptyd"), h, 6);
    EXPECT_THROW((void)io::load_dataset(path("nan.ptyd")), Error) << "optics field " << field;
  }
  DatasetHeader h;
  h.f[0] = 0.0;  // zero pixel size
  write_dataset(path("dx.ptyd"), h, 6);
  EXPECT_THROW((void)io::load_dataset(path("dx.ptyd")), Error);
}

}  // namespace
}  // namespace ptycho
