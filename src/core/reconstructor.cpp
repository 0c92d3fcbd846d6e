#include "core/reconstructor.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "backend/kernels.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace ptycho {

namespace {
// Post-run roll-up of the facade-level observables shared by both
// decomposed solvers.
void record_parallel_gauges(const ParallelResult& result) {
  if (!obs::metrics_enabled()) return;
  obs::registry().gauge("mem_peak_bytes_max").set(static_cast<double>(result.max_peak_bytes));
  obs::registry().gauge("mem_peak_bytes_mean").set(result.mean_peak_bytes);
  obs::registry().gauge("wall_seconds").set(result.wall_seconds);
}
}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::kSerial: return "serial";
    case Method::kGradientDecomposition: return "gradient-decomposition";
    case Method::kHaloVoxelExchange: return "halo-voxel-exchange";
  }
  return "?";
}

ReconstructionOutcome Reconstructor::run(const ReconstructionRequest& request,
                                         const FramedVolume* initial) const {
  if (!request.exec.backend.empty()) {
    PTYCHO_REQUIRE(backend::select(request.exec.backend),
                   "backend '" << request.exec.backend
                               << "' is not available (want scalar|simd|auto; simd requires "
                                  "CPU support)");
  }
  // One session for the whole supervised run: recovery counters must
  // accumulate across attempts, not reset with each retry.
  obs::Session session(obs::SessionConfig{request.exec.trace_out, request.exec.metrics_out});

  // Supervised retry loop (in-process clusters only: a distributed rank
  // cannot re-form the mesh from inside — its launch parent respawns it).
  const bool recoverable = request.exec.max_restarts > 0 &&
                           request.exec.checkpoint.enabled() &&
                           !request.exec.transport.distributed() &&
                           request.method != Method::kHaloVoxelExchange;
  ReconstructionRequest attempt = request;
  ckpt::Snapshot recovered;  // owns the restored state attempt.restore points at
  int restarts = 0;
  for (;;) {
    try {
      // The caller's warm start applies until a snapshot supersedes it.
      ReconstructionOutcome outcome =
          run_once(attempt, attempt.restore == request.restore ? initial : nullptr);
      if (obs::metrics_enabled() && restarts > 0) {
        obs::registry().gauge("runtime.recovery.generation").set(
            static_cast<double>(attempt.exec.transport.generation));
      }
      session.finish();
      return outcome;
    } catch (const rt::RankFailure& failure) {
      if (obs::metrics_enabled()) {
        obs::registry().counter("runtime.recovery.rank_failures_total").add(1);
      }
      if (!recoverable || restarts >= attempt.exec.max_restarts) {
        session.finish();
        throw;
      }
      WallTimer latency;
      log::warn() << "rank failure (" << failure.what() << ") — recovery attempt "
                  << (restarts + 1) << "/" << attempt.exec.max_restarts;
      if (attempt.fault.armed()) {
        // The injected fault consumed a rank: the survivors re-form one
        // smaller, and the (one-shot) fault must not re-fire after restore
        // — resumed step counters start past at_step and would re-kill the
        // run forever.
        attempt.nranks = std::max(1, attempt.nranks - 1);
        attempt.fault = rt::FaultPlan{};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(attempt.exec.restart_backoff_ms) << restarts));
      // New cluster incarnation: chaos one-shots stay spent, and (on
      // sockets) stale frames from the dead generation are rejected.
      attempt.exec.transport.generation += 1;
      ckpt::RestoreFilter filter;
      filter.nranks = attempt.method == Method::kSerial ? 1 : attempt.nranks;
      filter.chunks_per_iteration = attempt.passes_per_iteration;
      filter.update_mode = static_cast<int>(attempt.mode);
      filter.refine_probe = attempt.refine_probe ? 1 : 0;
      auto snapshot = ckpt::load_newest_valid(attempt.exec.checkpoint.directory, filter);
      if (snapshot.has_value()) {
        recovered = std::move(*snapshot);
        attempt.restore = &recovered;
        log::info() << "recovering from snapshot at iteration "
                    << recovered.manifest.iteration << " (chunk " << recovered.manifest.chunk
                    << ", " << recovered.manifest.nranks << " ranks) at "
                    << attempt.nranks << " ranks";
      } else {
        attempt.restore = request.restore;  // nothing usable: restart cold
        log::warn() << "no usable snapshot found — restarting from scratch";
      }
      restarts += 1;
      if (obs::metrics_enabled()) {
        obs::registry().counter("runtime.recovery.restarts_total").add(1);
        obs::registry().histogram("runtime.recovery.latency_seconds").observe(latency.seconds());
      }
    }
  }
}

ReconstructionOutcome Reconstructor::run_once(const ReconstructionRequest& request,
                                              const FramedVolume* initial) const {
  ReconstructionOutcome outcome;
  switch (request.method) {
    case Method::kSerial: {
      SerialConfig config;
      config.iterations = request.iterations;
      config.step = request.step;
      config.chunks_per_iteration = request.passes_per_iteration;
      config.exec = request.exec;
      config.mode = request.mode;
      config.refine_probe = request.refine_probe;
      config.record_cost = request.record_cost;
      config.restore = request.restore;
      SerialResult result = reconstruct_serial(dataset_, config, initial);
      outcome.volume = std::move(result.volume);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      if (obs::metrics_enabled()) {
        obs::registry().gauge("wall_seconds").set(result.wall_seconds);
      }
      return outcome;
    }
    case Method::kGradientDecomposition: {
      GdConfig config;
      config.nranks = request.nranks;
      config.iterations = request.iterations;
      config.step = request.step;
      config.passes_per_iteration = request.passes_per_iteration;
      config.exec = request.exec;
      config.mode = request.mode;
      config.sync = request.sync;
      config.refine_probe = request.refine_probe;
      config.record_cost = request.record_cost;
      config.restore = request.restore;
      config.fault = request.fault;
      ParallelResult result = reconstruct_gd(dataset_, config, initial);
      outcome.volume = std::move(result.volume);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      outcome.mean_peak_bytes = result.mean_peak_bytes;
      outcome.breakdown = std::move(result.breakdown);
      record_parallel_gauges(result);
      return outcome;
    }
    case Method::kHaloVoxelExchange: {
      PTYCHO_REQUIRE(!request.exec.checkpoint.enabled() && request.restore == nullptr,
                     "checkpoint/restore is not supported for the HVE solver");
      HveConfig config;
      config.nranks = request.nranks;
      config.iterations = request.iterations;
      config.step = request.step;
      config.local_epochs = request.hve_local_epochs;
      config.mode = request.mode;
      config.exec = request.exec;
      config.extra_rings = request.hve_extra_rings;
      config.record_cost = request.record_cost;
      ParallelResult result = reconstruct_hve(dataset_, config, initial);
      outcome.volume = std::move(result.volume);
      outcome.cost = std::move(result.cost);
      outcome.wall_seconds = result.wall_seconds;
      outcome.mean_peak_bytes = result.mean_peak_bytes;
      outcome.breakdown = std::move(result.breakdown);
      record_parallel_gauges(result);
      return outcome;
    }
  }
  PTYCHO_UNREACHABLE("unknown method");
}

}  // namespace ptycho
