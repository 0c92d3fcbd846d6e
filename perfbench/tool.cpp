// perfbench_tool — the benchmark's own C++ side (see perfbench/README.md).
//
// Subcommands:
//   gen     --spec small|large --seed N --out F.ptyd --truth T.bin
//           Seeded synthetic acquisition at kDose: the seed feeds both the
//           specimen and the shot noise. The ground truth goes to its own
//           file because .ptyd does not persist it.
//   check   --dataset F.ptyd --truth T.bin --volume V.bin --ranks R
//           Output check of one reconstruction: finiteness, relative RMS
//           error against the ground truth, and the Fig. 8 seam ratio at
//           the internal borders of the R-rank GD partition.
//   layers  --dataset F.ptyd --spans OUT.json --ranks R
//           [--ckpt-read DIR --passes P --mode sgd|full-batch]
//           Timed calls into each layer's public functions at the
//           workload's grid, volume and rank count; with --ckpt-read it
//           also times restoring the newest valid snapshot under DIR.
//   run     REPORT.json PROGRAM [ARGS...]
//           Fork + exec PROGRAM, wait for it, and write its wall time and
//           max RSS (its own and its waited-for children's) to REPORT.json;
//           exits with PROGRAM's exit code. A child's ru_maxrss starts at
//           its parent's RSS at fork, so launching from this small process
//           keeps run.py's own memory out of the figure.
//
// gen, check and layers print one JSON object on stdout. `layers` keeps its
// own spans (name, start, end, parent) in memory and writes them, with
// self times, to --spans at exit.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "ptycho.hpp"

using namespace ptycho;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Electrons per probe position: a finite shot-noise dose.
constexpr double kDose = 1e6;

DatasetSpec spec_by_name(const std::string& name) {
  if (name == "large") return repro_large_spec();
  PTYCHO_CHECK(name == "small", "unknown spec '" << name << "' (small|large)");
  return repro_small_spec();
}

// ---- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  void begin(const std::string& name) {
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    spans_[static_cast<usize>(stack_.back())].end_us = now_us();
    stack_.pop_back();
  }

  /// Self time = duration minus the part of it the direct children cover.
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    PTYCHO_CHECK(f != nullptr, "cannot write " << path);
    std::fprintf(f, "{\"spans\": [\n");
    for (usize i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> kids;
      for (const Span& c : spans_) {
        if (c.parent == static_cast<int>(i)) kids.emplace_back(c.start_us, c.end_us);
      }
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = s.start_us;
      for (const auto& [a, b] : kids) {
        const double lo = std::max(a, reach);
        if (b > lo) {
          covered += b - lo;
          reach = b;
        }
      }
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"parent\": %d, \"self_us\": %.3f}%s\n",
                   s.name.c_str(), s.start_us, s.end_us, s.parent,
                   s.end_us - s.start_us - covered, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Median seconds per call of `fn`: `batches` spans, each repeating fn
/// until it has run for at least `min_batch_s`.
double time_per_call(Tracer& tracer, const std::string& name, const std::function<void()>& fn,
                     int batches = 5, double min_batch_s = 0.04) {
  tracer.begin(name);
  fn();  // warm: plans, workspaces and caches filled before timing
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    tracer.begin(name + ".batch");
    const auto t0 = Clock::now();
    long calls = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < min_batch_s);
    tracer.end();
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  tracer.end();
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

// ---- JSON output ------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    items_.push_back("\"" + key + "\": " + buf);
  }
  void str(const std::string& key, const std::string& value) {
    items_.push_back("\"" + key + "\": \"" + value + "\"");
  }
  void print() const {
    std::string out = "{";
    for (usize i = 0; i < items_.size(); ++i) out += (i ? ", " : "") + items_[i];
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::vector<std::string> items_;
};

// ---- gen / check ------------------------------------------------------------

int cmd_gen(const Options& opts) {
  const DatasetSpec spec = spec_by_name(opts.get_string("spec", "small"));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  SpecimenParams specimen;
  specimen.seed = seed;
  AcquisitionParams acq;
  acq.dose_electrons = kDose;
  // Decorrelated from the specimen seed, but still a function of it.
  acq.noise_seed = seed * 0x9E3779B97F4A7C15ull + 1;
  const Dataset dataset = make_synthetic_dataset(spec, specimen, acq);
  io::save_dataset(opts.get_string("out", "dataset.ptyd"), dataset);
  io::save_volume(opts.get_string("truth", "truth.bin"), dataset.ground_truth);
  JsonObject out;
  out.num("probes", static_cast<double>(dataset.probe_count()));
  out.num("measurement_bytes", static_cast<double>(dataset.measurement_bytes()));
  out.print();
  return 0;
}

Partition gd_partition(const Dataset& dataset, int nranks) {
  GdConfig config;
  config.nranks = nranks;
  return make_gd_partition(dataset, config);
}

int cmd_check(const Options& opts) {
  const Dataset dataset = io::load_dataset(opts.get_string("dataset", ""));
  const FramedVolume truth = io::load_volume(opts.get_string("truth", ""));
  const FramedVolume volume = io::load_volume(opts.get_string("volume", ""));
  bool finite = true;
  for (index_t s = 0; s < volume.slices() && finite; ++s) {
    const auto w = volume.window(s, volume.frame);
    for (index_t y = 0; y < w.rows() && finite; ++y) {
      for (index_t x = 0; x < w.cols(); ++x) {
        if (!std::isfinite(w(y, x).real()) || !std::isfinite(w(y, x).imag())) {
          finite = false;
          break;
        }
      }
    }
  }
  const Partition partition = gd_partition(dataset, static_cast<int>(opts.get_int("ranks", 4)));
  const FramedVolume vacuum = make_vacuum_volume(truth.frame, truth.slices());
  JsonObject out;
  out.num("finite", finite ? 1.0 : 0.0);
  out.num("recon_error", finite ? relative_rms_error(volume, truth) : 1e30);
  out.num("vacuum_error", relative_rms_error(vacuum, truth));
  out.num("seam_ratio", finite ? measure_seams(volume, partition).seam_ratio : 1e30);
  out.print();
  return 0;
}

// ---- layers -----------------------------------------------------------------

usize dir_bytes(const std::string& dir) {
  usize total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<usize>(entry.file_size());
  }
  return total;
}

int cmd_layers(const Options& opts) {
  Tracer tracer;
  JsonObject out;
  const std::string dataset_path = opts.get_string("dataset", "");
  const int nranks = static_cast<int>(opts.get_int("ranks", 4));
  constexpr double kMB = 1e6;

  // data: dataset load (what every invocation pays before solving).
  const double file_mb = static_cast<double>(fs::file_size(dataset_path)) / kMB;
  const double load_s = time_per_call(
      tracer, "data.load", [&] { (void)io::load_dataset(dataset_path); }, 5, 0.0);
  out.num("data.load_s", load_s);
  out.num("data.load_mb_per_s", file_mb / load_s);
  const Dataset dataset = io::load_dataset(dataset_path);

  // ckpt read: discovery + CRC validation + assemble of the workload's
  // snapshot directory, when it has one, filtered as the CLI's --restore
  // filters it for an R-rank run.
  const std::string restore_dir = opts.get_string("ckpt-read", "");
  if (!restore_dir.empty()) {
    ckpt::RestoreFilter filter;
    filter.nranks = nranks;
    filter.chunks_per_iteration = static_cast<int>(opts.get_int("passes", 1));
    filter.update_mode = static_cast<int>(opts.get_string("mode", "sgd") == "full-batch"
                                              ? UpdateMode::kFullBatch
                                              : UpdateMode::kSgd);
    filter.refine_probe = 0;
    std::optional<ckpt::Snapshot> snapshot;
    const double restore_s = time_per_call(
        tracer, "ckpt.restore",
        [&] { snapshot = ckpt::load_newest_valid(restore_dir, filter); }, 3, 0.0);
    PTYCHO_CHECK(snapshot.has_value(), "no usable snapshot under " << restore_dir);
    const double mb =
        static_cast<double>(dir_bytes(ckpt::step_dir(restore_dir, snapshot->manifest.step))) / kMB;
    out.num("ckpt.restore_s", restore_s);
    out.num("ckpt.restore_mb_per_s", mb / restore_s);
  } else {
    out.num("ckpt.restore_s", 0.0);
    out.num("ckpt.restore_mb_per_s", 0.0);
  }

  // common: CRC-32 against a plain copy of the same shard-sized buffer
  // (one rank's share of the volume, roughly what a checkpoint shard holds).
  {
    const usize bytes = dataset.volume_bytes() / static_cast<usize>(std::max(1, nranks));
    std::vector<unsigned char> src(bytes);
    std::vector<unsigned char> dst(bytes);
    for (usize i = 0; i < bytes; ++i) src[i] = static_cast<unsigned char>(i * 131u + 7u);
    volatile std::uint32_t sink = 0;
    const double crc_s =
        time_per_call(tracer, "common.crc32", [&] { sink = crc32(src.data(), bytes); });
    const double copy_s = time_per_call(tracer, "common.memcpy", [&] {
      std::memcpy(dst.data(), src.data(), bytes);
      sink = dst[bytes / 2];
    });
    (void)sink;
    out.num("common.crc32_mb_per_s", static_cast<double>(bytes) / kMB / crc_s);
    out.num("common.memcpy_mb_per_s", static_cast<double>(bytes) / kMB / copy_s);
  }

  // physics: per-probe evaluations at the workload's grid and volume.
  {
    const GradientEngine engine(dataset);
    const FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);
    FramedVolume grad(dataset.spec.slices, dataset.field());
    MultisliceWorkspace ws = engine.make_workspace();
    const index_t probes = dataset.probe_count();
    index_t next = 0;
    const auto probe = [&] { return (next = (next + 7) % probes); };
    const double grad_s = time_per_call(
        tracer, "physics.grad", [&] { (void)engine.probe_gradient(probe(), volume, grad, ws); });
    const double fwd_s = time_per_call(tracer, "physics.forward", [&] {
      engine.op().forward(dataset.probe, volume, engine.window(probe()), ws);
    });
    const double cost_s = time_per_call(
        tracer, "physics.cost", [&] { (void)engine.probe_cost(probe(), volume, ws); });
    const auto n = static_cast<index_t>(dataset.spec.grid.probe_n);
    CArray2D psi(n, n);
    for (index_t i = 0; i < psi.size(); ++i) psi.data()[i] = cplx(1.0f, 0.5f);
    const double prop_s = time_per_call(tracer, "physics.propagate", [&] {
      engine.op().propagator().apply(psi.view());
    });
    out.num("physics.grad_us", grad_s * 1e6);
    out.num("physics.forward_us", fwd_s * 1e6);
    out.num("physics.cost_us", cost_s * 1e6);
    out.num("physics.adjoint_us", (grad_s - fwd_s) * 1e6);
    out.num("physics.propagate_us", prop_s * 1e6);
  }

  // fft + backend at probe_n x probe_n. "Computed" bytes: the array bytes
  // each call reads and writes, not a measured memory-traffic figure.
  {
    const usize n = dataset.spec.grid.probe_n;
    const double plane = static_cast<double>(n * n * sizeof(cplx));
    const fft::Fft2D fft(n, n);
    CArray2D field(static_cast<index_t>(n), static_cast<index_t>(n));
    for (index_t i = 0; i < field.size(); ++i) field.data()[i] = cplx(0.25f, -0.5f);
    const double pair_s = time_per_call(tracer, "fft.pair", [&] {
      fft.forward(field.view());
      fft.inverse(field.view());
    });
    out.num("fft.pair_us", pair_s * 1e6);
    out.num("fft.mb_per_s", 2.0 * 2.0 * plane / kMB / pair_s);

    // Inputs stay in the normal float range: cmul writes a separate
    // output, and the butterfly (which scales norms by sqrt 2 per call)
    // restarts from small values every 128 calls.
    const backend::Kernels& k = backend::kernels();
    const std::vector<cplx> a(n * n, cplx(0.5f, 0.25f));
    const std::vector<cplx> b(n * n, cplx(0.75f, -0.5f));
    std::vector<cplx> c(n * n);
    const double cmul_s = time_per_call(tracer, "backend.cmul", [&] {
      k.cmul_lanes(c.data(), a.data(), b.data(), n * n);
    });
    const usize half = n * n / 2;
    int fly_calls = 0;
    const double fly_s = time_per_call(tracer, "backend.butterfly", [&] {
      if (fly_calls++ % 128 == 0) std::fill(c.begin(), c.end(), cplx(1e-20f, -2e-20f));
      k.butterfly_lanes(c.data(), c.data() + half, cplx(0.6f, 0.8f), half);
    });
    out.num("backend.cmul_mb_per_s", 3.0 * plane / kMB / cmul_s);
    out.num("backend.butterfly_mb_per_s", 2.0 * plane / kMB / fly_s);
    out.str("backend.name", k.name);
  }

  // partition: the workload's GD tiling.
  {
    const Partition partition = gd_partition(dataset, nranks);
    double extended = 0.0;
    for (const TileSpec& tile : partition.tiles()) {
      extended += static_cast<double>(tile.extended.area());
    }
    out.num("partition.extended_area_ratio",
            extended / static_cast<double>(partition.field().area()));
    out.num("partition.replication", partition.measurement_replication());
  }

  tracer.write(opts.get_string("spans", "layers-spans.json"));
  out.print();
  return 0;
}

int cmd_run(const char* report, char** program) {
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 127;
  }
  if (pid == 0) {
    execv(program[0], program);
    std::perror("execv");
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("wait4");
    return 127;
  }
  const double total_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::FILE* f = std::fopen(report, "w");
  if (f == nullptr) {
    std::perror(report);
    return 127;
  }
  std::fprintf(f, "{\"total_s\": %.9f, \"maxrss_kib\": %ld}\n", total_s, usage.ru_maxrss);
  std::fclose(f);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool <gen|check|layers|run> [options]\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "run") {
    if (argc < 4) {
      std::fprintf(stderr, "usage: perfbench_tool run REPORT.json PROGRAM [ARGS...]\n");
      return 2;
    }
    return cmd_run(argv[2], argv + 3);
  }
  const Options opts = Options::parse(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(opts);
    if (command == "check") return cmd_check(opts);
    if (command == "layers") return cmd_layers(opts);
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
