// Backend selection: one atomic pointer to the active kernel table,
// resolved from the backend choice. The choice comes from PTYCHO_BACKEND /
// CPU detection / select() (the CLI --backend flag). Generic code only —
// this TU is compiled without ISA extension flags.
#include "backend/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "common/log.hpp"

namespace ptycho::backend {

namespace {

enum class Choice { kAuto, kScalar, kSimd };

std::atomic<const Kernels*> g_active{nullptr};

/// Map a backend choice to a concrete table. kernels() stays a single
/// atomic load — resolution happens only here, on first use or select().
const Kernels* resolve(Choice choice) {
  const bool scalar = choice == Choice::kScalar ||
                      (choice == Choice::kAuto && !simd_available());
  return scalar ? &scalar_kernels() : simd_kernels();
}

/// Resolve the PTYCHO_BACKEND environment variable (or its absence) to a
/// backend choice. Invalid or unsatisfiable values warn and fall back to
/// auto: env configuration must never abort a run that would work without
/// it.
Choice initial_choice() {
  const char* env = std::getenv("PTYCHO_BACKEND");
  if (env != nullptr && env[0] != '\0') {
    const std::string_view name(env);
    if (name == "scalar") return Choice::kScalar;
    if (name == "simd") {
      if (simd_available()) return Choice::kSimd;
      log::warn() << "PTYCHO_BACKEND=simd but no SIMD backend is usable on this CPU; "
                     "using scalar";
      return Choice::kScalar;
    }
    if (name != "auto") {
      log::warn() << "PTYCHO_BACKEND='" << env << "' is not scalar|simd|auto; using auto";
    }
  }
  return Choice::kAuto;
}

}  // namespace

bool simd_available() {
  if (simd_kernels() == nullptr) return false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // The table was compiled with -mavx2 (and nothing more — see the FMA
  // note in CMakeLists.txt); the builtin also checks OS xsave support.
  return __builtin_cpu_supports("avx2");
#else
  // NEON is architecturally guaranteed on AArch64: compiled-in == runnable.
  return true;
#endif
}

const Kernels& kernels() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    const Kernels* fresh = resolve(initial_choice());
    if (g_active.compare_exchange_strong(k, fresh, std::memory_order_acq_rel)) {
      k = fresh;  // this thread won the (idempotent) initialization race
    }
  }
  return *k;
}

bool select(std::string_view name) {
  Choice choice;
  if (name.empty() || name == "auto") {
    choice = Choice::kAuto;
  } else if (name == "scalar") {
    choice = Choice::kScalar;
  } else if (name == "simd") {
    if (!simd_available()) return false;
    choice = Choice::kSimd;
  } else {
    return false;
  }
  g_active.store(resolve(choice), std::memory_order_release);
  return true;
}

const char* active_name() { return kernels().name; }

}  // namespace ptycho::backend
