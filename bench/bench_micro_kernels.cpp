// Kernel micro-benchmarks (google-benchmark): the building blocks whose
// measured costs back the performance model's calibration.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>

#include "backend/kernels.hpp"
#include "common/crc32.hpp"
#include "core/gradient_engine.hpp"
#include "data/simulate.hpp"
#include "fft/fft2d.hpp"
#include "physics/propagator.hpp"
#include "runtime/cluster.hpp"
#include "tensor/ops.hpp"

namespace ptycho {
namespace {

void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  fft::Plan1D plan(n);
  std::vector<cplx> data(n, cplx(1, 0));
  for (auto _ : state) {
    plan.forward(data.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1D)->Arg(64)->Arg(256)->Arg(1024);

void BM_Fft2D(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  fft::Fft2D plan(n, n);
  CArray2D field(static_cast<index_t>(n), static_cast<index_t>(n));
  field.fill(cplx(1, 0));
  for (auto _ : state) {
    plan.forward(field.view());
    plan.inverse(field.view());
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2D)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_Fft2DPropagatorPair(benchmark::State& state) {
  // The pair the sweep actually runs: one Propagator::apply is a column
  // DIF, a transpose, row DIF, spectral multiply, row DIT, a transpose back
  // and a column DIT, with the spectrum never leaving the tile.
  OpticsGrid grid;
  grid.probe_n = static_cast<usize>(state.range(0));
  const Propagator prop(grid);
  const auto n = static_cast<index_t>(grid.probe_n);
  CArray2D field(n, n);
  field.fill(cplx(1, 0));
  for (auto _ : state) {
    prop.apply(field.view());
    benchmark::DoNotOptimize(field.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Fft2DPropagatorPair)->Arg(64);

void BM_ProbeGradient(benchmark::State& state) {
  // One probe-location gradient on the tiny dataset: the inner loop of
  // Alg. 1 step 6 and the unit the perf model's flops estimate describes.
  static const Dataset dataset = make_synthetic_dataset(repro_tiny_spec());
  GradientEngine engine(dataset);
  MultisliceWorkspace ws = engine.make_workspace();
  FramedVolume volume = make_vacuum_volume(dataset.field(), dataset.spec.slices);
  FramedVolume grad(dataset.spec.slices, dataset.field());
  for (auto _ : state) {
    grad.data.fill(cplx{});
    const double f = engine.probe_gradient(0, volume, grad, ws);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_ProbeGradient);

void BM_RegionAdd(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  FramedVolume a(4, Rect{0, 0, n, n});
  FramedVolume b(4, Rect{n / 2, n / 2, n, n});
  a.data.fill(cplx(1, 1));
  const Rect overlap = intersect(a.frame, b.frame);
  for (auto _ : state) {
    add_region(a, b, overlap);
    benchmark::DoNotOptimize(b.data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(overlap.area() * 4) *
                          static_cast<std::int64_t>(sizeof(cplx)));
}
BENCHMARK(BM_RegionAdd)->Arg(64)->Arg(256);

void BM_PackUnpack(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  FramedVolume src(4, Rect{0, 0, n, n});
  FramedVolume dst(4, Rect{0, 0, n, n});
  const Rect region{0, 0, n, n / 2};
  for (auto _ : state) {
    std::vector<cplx> payload = pack_region(src, region);
    unpack_add_region(payload, dst, region);
    benchmark::DoNotOptimize(dst.data.data());
  }
}
BENCHMARK(BM_PackUnpack)->Arg(64)->Arg(256);

void BM_FabricPingPong(benchmark::State& state) {
  const auto payload_size = static_cast<usize>(state.range(0));
  rt::Fabric fabric(2);
  std::int64_t round = 0;
  for (auto _ : state) {
    fabric.isend(0, 1, rt::make_tag(rt::Phase::kTest, round), std::vector<cplx>(payload_size));
    std::vector<cplx> got = fabric.recv(1, 0, rt::make_tag(rt::Phase::kTest, round));
    benchmark::DoNotOptimize(got.data());
    ++round;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size * sizeof(cplx)));
}
BENCHMARK(BM_FabricPingPong)->Arg(64)->Arg(4096)->Arg(65536);

void BM_SpecimenSynthesis(benchmark::State& state) {
  OpticsGrid grid;
  const auto n = static_cast<index_t>(state.range(0));
  for (auto _ : state) {
    FramedVolume v = make_perovskite_specimen(Rect{0, 0, n, n}, 2, grid);
    benchmark::DoNotOptimize(v.data.data());
  }
}
BENCHMARK(BM_SpecimenSynthesis)->Arg(128);

// ---- integrity checksum: CRC-32 next to its memcpy ceiling ----
// 4 KiB is a typical halo wire frame, 3 MiB one checkpoint shard. The
// memcpy row over the same bytes is the bandwidth the CRC can at best
// approach; `--benchmark_filter=Crc32` prints the pair.

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  std::vector<unsigned char> src(n);
  for (usize i = 0; i < n; ++i) src[i] = static_cast<unsigned char>(i * 131u + 7u);
  for (auto _ : state) {
    std::uint32_t crc = crc32(src.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(3 << 20);

void BM_Crc32MemcpyCeiling(benchmark::State& state) {
  const auto n = static_cast<usize>(state.range(0));
  std::vector<unsigned char> src(n, 0x5A);
  std::vector<unsigned char> dst(n);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32MemcpyCeiling)->Arg(4 << 10)->Arg(3 << 20);

// ---- backend primitive benchmarks, one registration per kernel table ----
// Calling the tables directly (instead of flipping the global dispatch)
// keeps runs order-independent: BM_Backend*/scalar vs BM_Backend*/avx2
// rows compare the scalar baseline against the vector path side by side.

std::vector<cplx> backend_signal(usize n, int salt) {
  std::vector<cplx> v(n);
  for (usize i = 0; i < n; ++i) {
    v[i] = cplx(static_cast<real>((i + static_cast<usize>(salt)) % 7) - real(3),
                real(0.5) + static_cast<real>(i % 5));
  }
  return v;
}

void BM_BackendCmul(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> a = backend_signal(n, 1);
  const std::vector<cplx> b = backend_signal(n, 2);
  std::vector<cplx> dst(n);
  for (auto _ : state) {
    kern->cmul_lanes(dst.data(), a.data(), b.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendCmulConj(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> a = backend_signal(n, 1);
  const std::vector<cplx> b = backend_signal(n, 2);
  std::vector<cplx> dst(n);
  for (auto _ : state) {
    kern->cmul_conj_lanes(dst.data(), a.data(), b.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendAxpy(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> src = backend_signal(n, 3);
  std::vector<cplx> dst = backend_signal(n, 4);
  const cplx alpha(real(1e-3), real(-2e-3));  // small: dst stays finite
  for (auto _ : state) {
    kern->axpy_lanes(dst.data(), src.data(), alpha, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * n * sizeof(cplx)));
}

void BM_BackendButterfly(benchmark::State& state, const backend::Kernels* kern) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> a0 = backend_signal(n, 5);
  const std::vector<cplx> b0 = backend_signal(n, 6);
  std::vector<cplx> a = a0;
  std::vector<cplx> b = b0;
  const cplx w(real(0.70710678), real(-0.70710678));
  int applications = 0;
  for (auto _ : state) {
    // The butterfly doubles signal energy; reset (untimed) before values
    // can overflow.
    if (++applications >= 100) {
      state.PauseTiming();
      a = a0;
      b = b0;
      applications = 0;
      state.ResumeTiming();
    }
    kern->butterfly_lanes(a.data(), b.data(), w, n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n * sizeof(cplx)));
}

/// One radix-4 butterfly family with twiddles shared across lanes, as the
/// strided FFT calls it: `dif` selects the forward (decimation in
/// frequency) form, otherwise the inverse's decimation-in-time form.
void backend_butterfly4(benchmark::State& state, const backend::Kernels* kern, bool dif) {
  const auto n = static_cast<usize>(state.range(0));
  const std::vector<cplx> x0_0 = backend_signal(n, 9);
  const std::vector<cplx> x1_0 = backend_signal(n, 10);
  const std::vector<cplx> x2_0 = backend_signal(n, 11);
  const std::vector<cplx> x3_0 = backend_signal(n, 12);
  // Unit-magnitude twiddles, as in the real transform (and the radix-2
  // bench): growth per application stays bounded by the 4-point sum, so
  // the reset below fires long before float32 overflow.
  const auto unit_root = [](double angle) {
    return cplx(static_cast<real>(std::cos(angle)), static_cast<real>(std::sin(angle)));
  };
  const cplx w1 = unit_root(-1.3);
  const cplx w2 = unit_root(-1.4);
  const cplx w3 = unit_root(-1.5);
  const auto fly = dif ? kern->butterfly4_dif_lanes : kern->butterfly4_lanes;
  std::vector<cplx> x0 = x0_0;
  std::vector<cplx> x1 = x1_0;
  std::vector<cplx> x2 = x2_0;
  std::vector<cplx> x3 = x3_0;
  int applications = 0;
  for (auto _ : state) {
    // Like the radix-2 butterfly, each application grows the signal; reset
    // (untimed) before values can overflow.
    if (++applications >= 50) {
      state.PauseTiming();
      x0 = x0_0;
      x1 = x1_0;
      x2 = x2_0;
      x3 = x3_0;
      applications = 0;
      state.ResumeTiming();
    }
    fly(x0.data(), x1.data(), x2.data(), x3.data(), w1, w2, w3, false, n);
    benchmark::DoNotOptimize(x0.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * n * sizeof(cplx)));
}

void BM_BackendButterfly4(benchmark::State& state, const backend::Kernels* kern) {
  backend_butterfly4(state, kern, /*dif=*/false);
}

void BM_BackendButterfly4Dif(benchmark::State& state, const backend::Kernels* kern) {
  backend_butterfly4(state, kern, /*dif=*/true);
}

/// Registers every backend primitive benchmark for one kernel table.
void register_backend_benches(const backend::Kernels* kern) {
  using Fn = void (*)(benchmark::State&, const backend::Kernels*);
  const std::pair<const char*, Fn> benches[] = {
      {"BM_BackendCmul", &BM_BackendCmul},
      {"BM_BackendCmulConj", &BM_BackendCmulConj},
      {"BM_BackendAxpy", &BM_BackendAxpy},
      {"BM_BackendButterfly", &BM_BackendButterfly},
      {"BM_BackendButterfly4", &BM_BackendButterfly4},
      {"BM_BackendButterfly4Dif", &BM_BackendButterfly4Dif},
  };
  for (const auto& [name, fn] : benches) {
    const std::string full = std::string(name) + "/" + kern->name;
    benchmark::RegisterBenchmark(full.c_str(), fn, kern)->Arg(256)->Arg(4096);
  }
}

const int backend_benches_registered = [] {
  register_backend_benches(&backend::scalar_kernels());
  if (backend::simd_available()) register_backend_benches(backend::simd_kernels());
  return 0;
}();

}  // namespace
}  // namespace ptycho

BENCHMARK_MAIN();
