// The virtual GPU cluster: runs K ranks as preemptively-scheduled threads
// with a shared message fabric, per-rank memory tracking and per-rank
// phase profiling.
//
// This is the substitution for the paper's Summit allocation (README intro
// and "Module architecture"): algorithmic behaviour — who communicates what, per-rank peak
// memory, convergence, seam behaviour — is bit-faithful to a real
// distributed run; wall-clock scaling at paper scale is handled by the
// calibrated performance model instead (runtime/perfmodel.hpp).
#pragma once

#include <functional>
#include <vector>

#include "common/random.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "runtime/channel.hpp"
#include "runtime/memtrack.hpp"

namespace ptycho::rt {

class VirtualCluster;

/// How an injected fault kills its victim.
enum class FaultKind {
  kThrow,  ///< poison the fabric, throw RankFailure on the victim
  kExit,   ///< hard _exit() the victim's process (distributed runs only —
           ///< peers must detect the death via EOF; in-process clusters
           ///< downgrade to kThrow since _exit would kill every rank)
};

/// Kill `rank` when it reaches the first fault point with step >= at_step.
/// Models losing a node mid-run: the victim throws RankFailure and the
/// fabric is poisoned so every other rank's blocking communication aborts
/// with RankFailure too (instead of deadlocking on the dead rank).
struct FaultPlan {
  int rank = -1;              ///< victim rank; -1 disables injection
  std::uint64_t at_step = 0;  ///< first step at which the fault fires
  FaultKind kind = FaultKind::kThrow;

  [[nodiscard]] bool armed() const { return rank >= 0; }
};

/// Everything a rank body needs; passed by reference into the body.
class RankContext {
 public:
  RankContext(int rank, int nranks, Fabric& fabric, MemTracker& mem, PhaseProfiler& prof,
              obs::PhaseLedger& ledger, VirtualCluster& cluster, std::uint64_t seed)
      : rank_(rank),
        nranks_(nranks),
        fabric_(fabric),
        mem_(mem),
        prof_(prof),
        ledger_(ledger),
        cluster_(cluster),
        rng_(Rng(seed).split(static_cast<std::uint64_t>(rank))) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MemTracker& mem() { return mem_; }
  [[nodiscard]] PhaseProfiler& profiler() { return prof_; }
  [[nodiscard]] obs::PhaseLedger& ledger() { return ledger_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Fold the span-derived phase durations accumulated since the last
  /// merge into this rank's profiler. Called from the rank's own thread
  /// at chunk boundaries (and once more when the rank body returns).
  void merge_phases() { ledger_.merge_into(prof_); }

  /// Non-blocking send from this rank (profiled as comm).
  void isend(int dst, Tag tag, std::vector<cplx> payload);

  /// Blocking receive (blocked time is profiled as wait).
  [[nodiscard]] std::vector<cplx> recv(int src, Tag tag);

  /// Post a non-blocking receive.
  [[nodiscard]] RecvRequest irecv(int src, Tag tag);

  /// Global barrier across all ranks (blocked time profiled as wait).
  void barrier();

  /// Fault-injection hook: solvers call this at recoverable boundaries
  /// (e.g. after each chunk) with a monotonically increasing step counter.
  /// If a fault is planned for this rank and `step` has been reached, the
  /// fabric is poisoned and RankFailure is thrown on this rank.
  void fault_point(std::uint64_t step);

 private:
  int rank_;
  int nranks_;
  Fabric& fabric_;
  MemTracker& mem_;
  PhaseProfiler& prof_;
  obs::PhaseLedger& ledger_;
  VirtualCluster& cluster_;
  Rng rng_;
};

/// Full description of a cluster: rank count, RNG seed, and the transport
/// the fabric should ride on. The default is the historical in-process
/// deployment (K ranks as threads); a socket transport makes this process
/// host exactly one rank of a K-process job.
struct ClusterSpec {
  int nranks = 1;
  std::uint64_t seed = 7;
  TransportOptions transport;
};

/// Spawns rank bodies on threads and joins them; owns the fabric and the
/// per-rank trackers/profilers so results can be inspected after run().
/// With a distributed transport, run() executes only this process's rank —
/// the other ranks are peer processes reached through the fabric.
class VirtualCluster {
 public:
  explicit VirtualCluster(int nranks, std::uint64_t seed = 7);
  explicit VirtualCluster(const ClusterSpec& spec);

  [[nodiscard]] int nranks() const { return nranks_; }

  /// True when peer ranks live in other processes (socket transport).
  [[nodiscard]] bool distributed() const { return distributed_; }

  /// The rank this process hosts (-1 aside, every rank in-process mode).
  [[nodiscard]] int local_rank() const { return local_rank_; }

  /// Ranks hosted by this process (all of them in-process, one distributed).
  [[nodiscard]] int local_ranks() const { return distributed_ ? 1 : nranks_; }

  /// True when `rank`'s trackers/profilers are populated in this process.
  [[nodiscard]] bool is_local(int rank) const {
    return !distributed_ || rank == local_rank_;
  }

  using RankBody = std::function<void(RankContext&)>;

  /// Run `body` on every rank; blocks until all complete. Rethrows the
  /// first rank exception (after joining everything).
  void run(const RankBody& body);

  [[nodiscard]] const MemTracker& mem(int rank) const;
  [[nodiscard]] const PhaseProfiler& profiler(int rank) const;
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] FabricStats fabric_stats() const { return fabric_.stats(); }

  /// Peak tracked bytes, averaged / maxed across ranks.
  [[nodiscard]] double mean_peak_bytes() const;
  [[nodiscard]] usize max_peak_bytes() const;

  /// Reset trackers, profilers and barrier state for a fresh run.
  void reset_instrumentation();

  /// Arm fault injection for the next run() (see FaultPlan).
  void inject_fault(const FaultPlan& plan) { fault_ = plan; }
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_; }

 private:
  friend class RankContext;
  void barrier_wait();
  void barrier_wait_distributed();
  void maybe_fault(int rank, std::uint64_t step);
  void poison() noexcept;

  int nranks_;
  std::uint64_t seed_;
  bool distributed_ = false;
  int local_rank_ = -1;
  Fabric fabric_;
  std::vector<MemTracker> trackers_;
  std::vector<PhaseProfiler> profilers_;
  std::vector<obs::PhaseLedger> ledgers_;  ///< span-phase sinks, merged into profilers_
  FaultPlan fault_;
  std::atomic<bool> fault_fired_{false};

  // Central sense-reversing barrier (in-process mode). Distributed mode
  // replaces it with a dissemination barrier over fabric messages tagged
  // Phase::kBarrier; barrier_generation_ then just numbers invocations so
  // consecutive barriers cannot match each other's traffic.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool barrier_poisoned_ = false;
};

}  // namespace ptycho::rt
