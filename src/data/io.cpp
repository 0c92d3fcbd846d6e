#include "data/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "fft/plan.hpp"

namespace ptycho::io {

void write_pgm(const std::string& path, View2D<const real> image) {
  double lo = 1e300;
  double hi = -1e300;
  for (index_t y = 0; y < image.rows(); ++y) {
    for (index_t x = 0; x < image.cols(); ++x) {
      const auto v = static_cast<double>(image(y, x));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  // A constant image has no contrast to map: emit mid-gray (as documented)
  // rather than the black frame a naive (v - lo) / 1.0 would produce.
  const bool flat = !(hi > lo);
  const double span = flat ? 1.0 : hi - lo;

  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << "P5\n" << image.cols() << " " << image.rows() << "\n255\n";
  for (index_t y = 0; y < image.rows(); ++y) {
    for (index_t x = 0; x < image.cols(); ++x) {
      const double v = (static_cast<double>(image(y, x)) - lo) / span;
      const auto byte = flat ? static_cast<unsigned char>(128)
                             : static_cast<unsigned char>(std::clamp(v * 255.0, 0.0, 255.0));
      out.put(static_cast<char>(byte));
    }
  }
  PTYCHO_CHECK(out.good(), "write failed for '" << path << "'");
}

void write_phase_pgm(const std::string& path, View2D<const cplx> slice) {
  RArray2D phase(slice.rows(), slice.cols());
  for (index_t y = 0; y < slice.rows(); ++y) {
    for (index_t x = 0; x < slice.cols(); ++x) {
      phase(y, x) = std::arg(slice(y, x));
    }
  }
  write_pgm(path, phase.view());
}

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path);
  PTYCHO_CHECK(impl_->out.good(), "cannot open '" << path << "' for writing");
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::header(const std::vector<std::string>& names) {
  for (usize i = 0; i < names.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << names[i];
  }
  impl_->out << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  std::ostringstream line;
  for (usize i = 0; i < values.size(); ++i) {
    if (i > 0) line << ',';
    line << values[i];
  }
  impl_->out << line.str() << '\n';
}

void CsvWriter::raw_row(const std::string& line) { impl_->out << line << '\n'; }

namespace {
constexpr std::uint64_t kVolumeMagic = 0x50545943484F564CULL;  // "PTYCHOVL"
}

void save_volume(const std::string& path, const FramedVolume& volume) {
  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open '" << path << "' for writing");
  const std::uint64_t magic = kVolumeMagic;
  const std::int64_t header[5] = {volume.frame.y0, volume.frame.x0, volume.frame.h,
                                  volume.frame.w, volume.slices()};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(volume.data.data()),
            static_cast<std::streamsize>(volume.data.bytes()));
  PTYCHO_CHECK(out.good(), "write failed for '" << path << "'");
}

FramedVolume load_volume(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PTYCHO_CHECK(in.good(), "cannot open '" << path << "' for reading");
  std::uint64_t magic = 0;
  std::int64_t header[5] = {};
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  PTYCHO_CHECK(in.good() && magic == kVolumeMagic, "'" << path << "' is not a volume file");
  FramedVolume volume(header[4], Rect{header[0], header[1], header[2], header[3]});
  in.read(reinterpret_cast<char*>(volume.data.data()),
          static_cast<std::streamsize>(volume.data.bytes()));
  PTYCHO_CHECK(in.good(), "truncated volume file '" << path << "'");
  return volume;
}

namespace {
constexpr std::uint64_t kDatasetMagic = 0x5054594348444154ULL;  // "PTYCHDAT"

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_f64(std::ofstream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
double read_f64(std::ifstream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
}  // namespace

void save_dataset(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path, std::ios::binary);
  PTYCHO_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_u64(out, kDatasetMagic);
  const DatasetSpec& spec = dataset.spec;
  write_u64(out, spec.name.size());
  out.write(spec.name.data(), static_cast<std::streamsize>(spec.name.size()));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.rows));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.cols));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.step_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.step_y_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.margin_px));
  write_u64(out, static_cast<std::uint64_t>(spec.scan.probe_n));
  write_u64(out, spec.grid.probe_n);
  write_f64(out, spec.grid.dx_pm);
  write_f64(out, spec.grid.dz_pm);
  write_f64(out, spec.grid.wavelength_pm);
  write_f64(out, spec.probe.aperture_mrad);
  write_f64(out, spec.probe.defocus_pm);
  write_f64(out, spec.probe.cs_pm);
  write_u64(out, static_cast<std::uint64_t>(spec.slices));
  write_u64(out, static_cast<std::uint64_t>(spec.model.model));
  write_f64(out, static_cast<double>(spec.model.sigma));
  write_u64(out, dataset.measurements.size());
  for (const RArray2D& m : dataset.measurements) {
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.bytes()));
  }
  PTYCHO_CHECK(out.good(), "write failed for '" << path << "'");
}

namespace {

// Header bounds for untrusted dataset files. Each sits well above the
// paper's own acquisitions (Table I: 1024 x 1024 frames, a 3072 px field,
// 100 slices) so no real dataset trips them, yet every one is finite:
// nothing a header says can request an unbounded allocation.
constexpr std::uint64_t kMaxProbeN = 4096;           // power of two, for the FFT
constexpr std::uint64_t kMaxScanSide = 1u << 16;     // scan rows / cols
constexpr std::uint64_t kMaxPixels = 1u << 20;       // steps, margin, field extent
constexpr std::uint64_t kMaxSlices = 1u << 12;

/// Reads one unsigned header field and checks it lies in [lo, hi].
index_t read_bounded(std::ifstream& in, const char* field, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t v = read_u64(in);
  PTYCHO_CHECK(in.good(), "truncated dataset header (at " << field << ")");
  PTYCHO_CHECK(v >= lo && v <= hi,
               "corrupt dataset header: " << field << " = " << v << " is outside [" << lo
                                          << ", " << hi << "]");
  return static_cast<index_t>(v);
}

/// Reads one floating-point header field and checks it is finite and at
/// least `lo`.
double read_finite(std::ifstream& in, const char* field, double lo = -HUGE_VAL) {
  const double v = read_f64(in);
  PTYCHO_CHECK(in.good(), "truncated dataset header (at " << field << ")");
  PTYCHO_CHECK(std::isfinite(v) && v >= lo,
               "corrupt dataset header: " << field << " = " << v << " is out of range");
  return v;
}

}  // namespace

Dataset load_dataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PTYCHO_CHECK(in.good(), "cannot open '" << path << "' for reading");
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  PTYCHO_CHECK(read_u64(in) == kDatasetMagic, "'" << path << "' is not a dataset file");
  // Every header field is validated before anything is sized from it: a
  // hostile or bit-rotted header must end in ptycho::Error, never in a
  // crash or a multi-terabyte allocation.
  DatasetSpec spec;
  const auto name_len = read_u64(in);
  PTYCHO_CHECK(in.good() && name_len < (1u << 20) && name_len <= file_bytes,
               "corrupt dataset name length");
  spec.name.resize(name_len);
  in.read(spec.name.data(), static_cast<std::streamsize>(name_len));
  spec.scan.rows = read_bounded(in, "scan.rows", 1, kMaxScanSide);
  spec.scan.cols = read_bounded(in, "scan.cols", 1, kMaxScanSide);
  spec.scan.step_px = read_bounded(in, "scan.step_px", 1, kMaxPixels);
  spec.scan.step_y_px = read_bounded(in, "scan.step_y_px", 0, kMaxPixels);
  spec.scan.margin_px = read_bounded(in, "scan.margin_px", 0, kMaxPixels);
  spec.scan.probe_n = read_bounded(in, "scan.probe_n", 4, kMaxProbeN);
  spec.grid.probe_n = static_cast<usize>(read_bounded(in, "grid.probe_n", 4, kMaxProbeN));
  PTYCHO_CHECK(fft::is_pow2(spec.grid.probe_n),
               "corrupt dataset header: grid.probe_n = " << spec.grid.probe_n
                                                         << " is not a power of two");
  PTYCHO_CHECK(spec.scan.probe_n == static_cast<index_t>(spec.grid.probe_n),
               "corrupt dataset header: scan.probe_n " << spec.scan.probe_n
                                                       << " != grid.probe_n "
                                                       << spec.grid.probe_n);
  spec.grid.dx_pm = read_finite(in, "grid.dx_pm", 0.0);
  spec.grid.dz_pm = read_finite(in, "grid.dz_pm", 0.0);
  spec.grid.wavelength_pm = read_finite(in, "grid.wavelength_pm", 0.0);
  PTYCHO_CHECK(spec.grid.dx_pm > 0.0 && spec.grid.wavelength_pm > 0.0,
               "corrupt dataset header: pixel size and wavelength must be positive");
  spec.probe.aperture_mrad = read_finite(in, "probe.aperture_mrad", 0.0);
  spec.probe.defocus_pm = read_finite(in, "probe.defocus_pm");
  spec.probe.cs_pm = read_finite(in, "probe.cs_pm");
  spec.slices = read_bounded(in, "slices", 1, kMaxSlices);
  spec.model.model = static_cast<ObjectModel>(read_bounded(
      in, "model", static_cast<std::uint64_t>(ObjectModel::kTransmittance),
      static_cast<std::uint64_t>(ObjectModel::kPotential)));
  spec.model.sigma = static_cast<real>(read_finite(in, "model.sigma"));

  // The scanned field must stay addressable (the reconstruction volume is
  // sized from it), and rows x cols is the number of frames that follow.
  // Every factor is capped above, so none of these products overflow.
  const std::uint64_t extent_y = 2 * static_cast<std::uint64_t>(spec.scan.margin_px) +
                                 static_cast<std::uint64_t>(spec.scan.rows - 1) *
                                     static_cast<std::uint64_t>(spec.scan.step_y()) +
                                 spec.grid.probe_n;
  const std::uint64_t extent_x = 2 * static_cast<std::uint64_t>(spec.scan.margin_px) +
                                 static_cast<std::uint64_t>(spec.scan.cols - 1) *
                                     static_cast<std::uint64_t>(spec.scan.step_px) +
                                 spec.grid.probe_n;
  PTYCHO_CHECK(extent_y <= kMaxPixels && extent_x <= kMaxPixels,
               "corrupt dataset header: scanned field " << extent_y << " x " << extent_x
                                                        << " px exceeds " << kMaxPixels);
  const auto probes = static_cast<std::uint64_t>(spec.scan.rows) *
                      static_cast<std::uint64_t>(spec.scan.cols);
  const auto count = read_u64(in);
  PTYCHO_CHECK(in.good(), "truncated dataset header in '" << path << "'");
  PTYCHO_CHECK(count == probes,
               "dataset '" << path << "' measurement count does not match its scan");
  // The frames must all be in the file before any of them is allocated.
  const std::uint64_t frame_bytes = spec.grid.probe_n * spec.grid.probe_n * sizeof(real);
  const auto header_bytes = static_cast<std::uint64_t>(in.tellg());
  PTYCHO_CHECK(count <= (file_bytes - header_bytes) / frame_bytes,
               "truncated measurements in '" << path << "': header promises " << count
                                             << " frames of " << frame_bytes << " bytes");

  Dataset dataset(spec, ScanPattern(spec.scan), Probe(spec.grid, spec.probe));
  const auto n = static_cast<index_t>(spec.grid.probe_n);
  dataset.measurements.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RArray2D m(n, n);
    in.read(reinterpret_cast<char*>(m.data()), static_cast<std::streamsize>(m.bytes()));
    dataset.measurements.push_back(std::move(m));
  }
  PTYCHO_CHECK(in.good(), "truncated measurements in '" << path << "'");
  return dataset;
}

}  // namespace ptycho::io
