// Self-healing runtime tests: failure detection (recv deadlines, peer
// liveness heartbeats), automatic in-run recovery from the newest valid
// checkpoint, chaos injection determinism, and the discovery routine's
// fallback past corrupt/truncated snapshots.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/crc32.hpp"
#include "core/reconstructor.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/cluster.hpp"
#include "test_util.hpp"

namespace ptycho {
namespace {

namespace fs = std::filesystem;
using testing::tiny_dataset;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("ptycho_recovery_" + name)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_bitwise_equal(const FramedVolume& a, const FramedVolume& b) {
  ASSERT_EQ(a.slices(), b.slices());
  ASSERT_EQ(a.frame.h, b.frame.h);
  ASSERT_EQ(a.frame.w, b.frame.w);
  int mismatches = 0;
  for (index_t s = 0; s < a.slices(); ++s) {
    for (index_t y = 0; y < a.frame.h; ++y) {
      for (index_t x = 0; x < a.frame.w; ++x) {
        if (std::memcmp(&a.data(s, y, x), &b.data(s, y, x), sizeof(cplx)) != 0) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

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

std::vector<int> reserve_ports(int n) {
  std::vector<int> fds;
  std::vector<int> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)), 0);
    EXPECT_EQ(::listen(fd, 1), 0);
    socklen_t len = sizeof(sa);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
    fds.push_back(fd);
    ports.push_back(static_cast<int>(ntohs(sa.sin_port)));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

// ---- chaos spec grammar -----------------------------------------------------

TEST(ChaosSpec, ParsesEveryClause) {
  const rt::ChaosSpec spec =
      rt::parse_chaos_spec("delay=0.5:2,reorder=0.3,drop=0.1,corrupt=0.25,seed=9,rank=1");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.rank, 1);
  EXPECT_DOUBLE_EQ(spec.delay_p, 0.5);
  EXPECT_EQ(spec.delay_max_ms, 2);
  EXPECT_DOUBLE_EQ(spec.reorder_p, 0.3);
  EXPECT_DOUBLE_EQ(spec.drop_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.corrupt_p, 0.25);
  EXPECT_TRUE(spec.any());
}

TEST(ChaosSpec, ParsesOneShots) {
  const rt::ChaosSpec spec = rt::parse_chaos_spec("drop@3,corrupt@5,wedge@7");
  EXPECT_EQ(spec.drop_at, 3u);
  EXPECT_EQ(spec.corrupt_at, 5u);
  EXPECT_EQ(spec.wedge_at, 7u);
  EXPECT_TRUE(spec.any());
}

TEST(ChaosSpec, SeedAloneIsInert) {
  EXPECT_FALSE(rt::parse_chaos_spec("seed=42").any());
  EXPECT_FALSE(rt::parse_chaos_spec("").any());
}

TEST(ChaosSpec, RejectsMalformedClauses) {
  EXPECT_THROW((void)rt::parse_chaos_spec("bogus=1"), Error);
  EXPECT_THROW((void)rt::parse_chaos_spec("drop=1.5"), Error);   // probability > 1
  EXPECT_THROW((void)rt::parse_chaos_spec("drop@0"), Error);     // counts are 1-based
  EXPECT_THROW((void)rt::parse_chaos_spec("explode@3"), Error);  // unknown one-shot
  EXPECT_THROW((void)rt::parse_chaos_spec("delay"), Error);      // no value
}

// ---- failure detection ------------------------------------------------------

TEST(FailureDetection, RecvDeadlineTurnsAHangIntoRankFailure) {
  // Rank 0 blocks on a message nobody ever sends; rank 1 exits cleanly.
  // Without the deadline this would hang forever — with it, the fabric is
  // poisoned and the wait aborts with RankFailure.
  rt::ClusterSpec spec;
  spec.nranks = 2;
  spec.transport.recv_deadline_ms = 150;
  rt::VirtualCluster cluster(spec);
  EXPECT_THROW(cluster.run([&](rt::RankContext& ctx) {
    if (ctx.rank() == 0) {
      (void)ctx.recv(1, rt::make_tag(rt::Phase::kTest, 0));
    }
  }),
               rt::RankFailure);
  EXPECT_TRUE(cluster.fabric().poisoned());
}

TEST(FailureDetection, BarrierDeadlineCatchesARankThatNeverArrives) {
  rt::ClusterSpec spec;
  spec.nranks = 2;
  spec.transport.recv_deadline_ms = 150;
  rt::VirtualCluster cluster(spec);
  EXPECT_THROW(cluster.run([&](rt::RankContext& ctx) {
    if (ctx.rank() == 0) ctx.barrier();  // rank 1 returns without arriving
  }),
               rt::RankFailure);
}

TEST(FailureDetection, HeartbeatTimeoutDeclaresAWedgedPeerDead) {
  // A hand-rolled "rank 1" that completes the mesh handshake and then goes
  // silent while keeping its socket open — the wire-level signature of a
  // wedged (not killed) process. EOF never arrives, so only the liveness
  // watchdog can catch it.
  struct WireHeader {  // mirrors the transport's frame header
    std::uint32_t magic = 0x50545946u;
    std::uint32_t type = 0;  // kHello
    std::int32_t src = 1;
    std::int32_t dst = 0;
    std::int64_t tag = 0;
    std::uint64_t count = 0;
    std::uint32_t generation = 0;
    std::uint32_t checksum = 0;
  };
  static_assert(sizeof(WireHeader) == 40);

  const std::vector<int> ports = reserve_ports(2);
  std::thread impostor([&] {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(ports[0]));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int fd = -1;
    for (int attempt = 0; attempt < 500; ++attempt) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0) break;
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(fd, 0) << "never reached rank 0's listener";
    WireHeader hello;
    hello.checksum = crc32(&hello, sizeof(hello));
    ASSERT_EQ(::send(fd, &hello, sizeof(hello), 0), static_cast<ssize_t>(sizeof(hello)));
    // Wedge: stay connected but say nothing until well past the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    ::close(fd);
  });

  rt::TransportOptions opts;
  opts.kind = rt::TransportKind::kSocket;
  opts.rank = 0;
  for (const int p : ports) opts.peers.push_back("127.0.0.1:" + std::to_string(p));
  opts.heartbeat_ms = 50;
  opts.liveness_timeout_ms = 250;
  {
    rt::Fabric fabric(rt::make_transport(opts, 2));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)fabric.recv(0, 1, rt::make_tag(rt::Phase::kTest, 0)), rt::RankFailure);
    EXPECT_TRUE(fabric.poisoned());
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 1200);
  }
  impostor.join();
}

// ---- automatic in-run recovery ----------------------------------------------

ReconstructionRequest recovery_request(const std::string& ckpt_dir) {
  ReconstructionRequest request;
  request.method = Method::kGradientDecomposition;
  request.nranks = 2;
  request.iterations = 6;
  request.mode = UpdateMode::kFullBatch;
  request.exec.checkpoint = ckpt::Policy{ckpt_dir, 1};
  request.exec.restart_backoff_ms = 1;
  return request;
}

TEST(Recovery, AutoRecoveryMatchesManualRestoreBitwise) {
  const Dataset& dataset = tiny_dataset();
  Reconstructor reconstructor(dataset);

  // Leg 1: kill rank 1 at step 3 with recovery off. The run dies; steps
  // 1-2 survive on disk.
  ScratchDir manual_dir("manual");
  ReconstructionRequest doomed = recovery_request(manual_dir.path());
  doomed.fault = rt::FaultPlan{1, 3};
  EXPECT_THROW((void)reconstructor.run(doomed), rt::RankFailure);

  // Leg 2: the manual operator response — discover the newest valid
  // snapshot and resume one rank short of the dead mesh.
  ckpt::RestoreFilter filter;
  filter.nranks = 1;
  filter.chunks_per_iteration = doomed.passes_per_iteration;
  filter.update_mode = static_cast<int>(doomed.mode);
  filter.refine_probe = 0;
  auto snapshot = ckpt::load_newest_valid(manual_dir.path(), filter);
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->manifest.iteration, 2);
  ReconstructionRequest resumed = recovery_request(manual_dir.path());
  resumed.nranks = 1;
  resumed.restore = &*snapshot;
  const ReconstructionOutcome manual = reconstructor.run(resumed);

  // The supervised run: same fault, recovery on. It must heal itself into
  // exactly the state the manual restore produced.
  ScratchDir auto_dir("auto");
  ReconstructionRequest supervised = recovery_request(auto_dir.path());
  supervised.fault = rt::FaultPlan{1, 3};
  supervised.exec.max_restarts = 2;
  const ReconstructionOutcome healed = reconstructor.run(supervised);

  expect_bitwise_equal(healed.volume, manual.volume);
  ASSERT_EQ(healed.cost.values().size(), manual.cost.values().size());
  for (usize i = 0; i < healed.cost.values().size(); ++i) {
    EXPECT_EQ(healed.cost.values()[i], manual.cost.values()[i]) << "iteration " << i;
  }
}

TEST(Recovery, ChaosDelayReorderSoakIsBitwiseIdenticalToClean) {
  // Delay + reorder only perturb timing; the per-key release-time
  // monotonization keeps every (src, dst, tag) stream FIFO, so the chaos
  // run must be indistinguishable from the clean one — bit for bit.
  const Dataset& dataset = tiny_dataset();
  Reconstructor reconstructor(dataset);

  ReconstructionRequest clean;
  clean.method = Method::kGradientDecomposition;
  clean.nranks = 2;
  clean.iterations = 4;
  clean.mode = UpdateMode::kFullBatch;
  const ReconstructionOutcome reference = reconstructor.run(clean);

  ReconstructionRequest chaotic = clean;
  chaotic.exec.transport.chaos = "delay=0.5:2,reorder=0.3,seed=9";
  const ReconstructionOutcome shaken = reconstructor.run(chaotic);

  expect_bitwise_equal(shaken.volume, reference.volume);
  ASSERT_EQ(shaken.cost.values().size(), reference.cost.values().size());
  for (usize i = 0; i < shaken.cost.values().size(); ++i) {
    EXPECT_EQ(shaken.cost.values()[i], reference.cost.values()[i]) << "iteration " << i;
  }
}

TEST(Recovery, CorruptionIsDetectedAndHealed) {
  // A one-shot corrupted frame poisons the run; the supervisor restores
  // the newest snapshot (same rank count — nothing died) and the one-shot
  // stays spent in the new generation, so the retry completes.
  const Dataset& dataset = tiny_dataset();
  Reconstructor reconstructor(dataset);

  ReconstructionRequest clean;
  clean.method = Method::kGradientDecomposition;
  clean.nranks = 2;
  clean.iterations = 4;
  clean.mode = UpdateMode::kFullBatch;
  const ReconstructionOutcome reference = reconstructor.run(clean);

  ScratchDir dir("corrupt");
  ReconstructionRequest chaotic = clean;
  chaotic.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  chaotic.exec.restart_backoff_ms = 1;
  chaotic.exec.max_restarts = 2;
  chaotic.exec.transport.chaos = "corrupt@3,rank=1,seed=3";
  const ReconstructionOutcome healed = reconstructor.run(chaotic);

  EXPECT_LT(volume_rel_diff(healed.volume, reference.volume), 1e-6);
}

TEST(Recovery, WedgedRankIsCaughtByTheRecvDeadlineAndHealed) {
  // wedge@N makes the victim go silent without closing anything — only a
  // deadline can see that. The recv deadline fires, the fabric is
  // poisoned, and the supervisor restores and completes.
  const Dataset& dataset = tiny_dataset();
  Reconstructor reconstructor(dataset);

  ReconstructionRequest clean;
  clean.method = Method::kGradientDecomposition;
  clean.nranks = 2;
  clean.iterations = 4;
  clean.mode = UpdateMode::kFullBatch;
  const ReconstructionOutcome reference = reconstructor.run(clean);

  ScratchDir dir("wedge");
  ReconstructionRequest chaotic = clean;
  chaotic.exec.checkpoint = ckpt::Policy{dir.path(), 1};
  chaotic.exec.restart_backoff_ms = 1;
  chaotic.exec.max_restarts = 2;
  chaotic.exec.transport.recv_deadline_ms = 250;
  chaotic.exec.transport.chaos = "wedge@4,rank=1,seed=2";
  const ReconstructionOutcome healed = reconstructor.run(chaotic);

  EXPECT_LT(volume_rel_diff(healed.volume, reference.volume), 1e-6);
}

TEST(Recovery, RestartBudgetExhaustionSurfacesTheFailure) {
  // Every send corrupted in every generation: no attempt can make
  // progress, and after max_restarts retries the failure must surface
  // instead of looping forever.
  ScratchDir dir("exhaust");
  ReconstructionRequest request = recovery_request(dir.path());
  request.iterations = 3;
  request.exec.max_restarts = 2;
  request.exec.transport.chaos = "corrupt=1,seed=1";
  Reconstructor reconstructor(tiny_dataset());
  EXPECT_THROW((void)reconstructor.run(request), rt::RankFailure);
}

// ---- snapshot discovery and integrity ---------------------------------------

TEST(Discovery, FindsTheNewestSnapshotWhenAllAreValid) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("all_valid");
  ReconstructionRequest request = recovery_request(dir.path());
  request.iterations = 4;
  Reconstructor reconstructor(dataset);
  (void)reconstructor.run(request);

  auto found = ckpt::load_newest_valid(dir.path(), ckpt::RestoreFilter{});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->manifest.iteration, 4);
  const ckpt::Snapshot latest = ckpt::load_latest(dir.path());
  EXPECT_EQ(found->manifest.iteration, latest.manifest.iteration);
  EXPECT_EQ(found->manifest.chunk, latest.manifest.chunk);
}

TEST(Discovery, FallsBackPastACorruptShard) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("bitrot");
  ReconstructionRequest request = recovery_request(dir.path());
  request.iterations = 4;
  Reconstructor reconstructor(dataset);
  (void)reconstructor.run(request);

  // Flip one payload byte in the newest snapshot's first shard: the CRC
  // must catch it and discovery must fall back to the previous snapshot.
  const auto newest = ckpt::find_latest_step(dir.path());
  ASSERT_TRUE(newest.has_value());
  char name[32];
  std::snprintf(name, sizeof name, "step-%08llu",
                static_cast<unsigned long long>(*newest));
  const fs::path shard = fs::path(dir.path()) / name / "shard-0000.ckpt";
  ASSERT_TRUE(fs::exists(shard));
  {
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(shard) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  auto found = ckpt::load_newest_valid(dir.path(), ckpt::RestoreFilter{});
  ASSERT_TRUE(found.has_value());
  EXPECT_LT(found->manifest.iteration, 4);

  // Truncate the fallback's shard too: discovery keeps walking back.
  char prev_name[32];
  std::snprintf(prev_name, sizeof prev_name, "step-%08llu",
                static_cast<unsigned long long>(*newest - 1));
  const fs::path prev_shard = fs::path(dir.path()) / prev_name / "shard-0000.ckpt";
  ASSERT_TRUE(fs::exists(prev_shard));
  fs::resize_file(prev_shard, fs::file_size(prev_shard) - 5);
  auto older = ckpt::load_newest_valid(dir.path(), ckpt::RestoreFilter{});
  ASSERT_TRUE(older.has_value());
  EXPECT_LT(older->manifest.iteration, found->manifest.iteration);
}

TEST(Discovery, FallsBackPastHostileHeadersWithValidCrcs) {
  // Headers that claim more data than their file holds, each behind a
  // recomputed CRC: the newest shard claims a 2^20 x 2^20 frame, the next
  // a 2^40 x 2^40 frame (the element count wraps to 0), the third newest
  // manifest 2^31 - 1 tiles. Each must end in ptycho::Error inside
  // discovery, which falls back to the newest snapshot left intact.
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("hostile");
  ReconstructionRequest request = recovery_request(dir.path());
  request.iterations = 4;
  Reconstructor reconstructor(dataset);
  (void)reconstructor.run(request);

  std::vector<std::uint64_t> steps;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::uint64_t step = 0;
    if (std::sscanf(entry.path().filename().string().c_str(), "step-%" SCNu64, &step) == 1) {
      steps.push_back(step);
    }
  }
  std::sort(steps.begin(), steps.end());
  ASSERT_GE(steps.size(), 4u);
  const std::uint64_t intact = steps[steps.size() - 4];

  // Shard frame h and w sit after magic, version, rank, partial cost and
  // RNG state (65 bytes) and the frame origin (16).
  const auto patch_frame = [&dir](std::uint64_t step, std::uint64_t extent) {
    const std::string shard = ckpt::step_dir(dir.path(), step) + "/shard-0000.ckpt";
    testing::patch_checkpoint_file(shard, 65 + 16, extent, 8);
    testing::patch_checkpoint_file(shard, 65 + 24, extent, 8);
  };
  patch_frame(steps[steps.size() - 1], std::uint64_t{1} << 20);
  patch_frame(steps[steps.size() - 2], std::uint64_t{1} << 40);
  {
    const std::string third = ckpt::step_dir(dir.path(), steps[steps.size() - 3]);
    const ckpt::Manifest m = ckpt::read_manifest(third);
    // nranks follows magic, version, name, three u64 and three u32 fields;
    // the tile count follows two flag bytes and the cost history.
    const std::uint64_t nranks = 12 + 8 + m.dataset_name.size() + 24 + 12;
    const std::uint64_t tile_count = nranks + 4 + 2 + 8 + 8 * m.cost_values.size();
    testing::patch_checkpoint_file(third + "/manifest.ckpt", nranks, 0x7FFFFFFFu, 4);
    testing::patch_checkpoint_file(third + "/manifest.ckpt", tile_count, 0x7FFFFFFFu, 8);
  }

  auto found = ckpt::load_newest_valid(dir.path(), ckpt::RestoreFilter{});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->manifest.step, intact);
}

TEST(Discovery, FilterSkipsSnapshotsWithMismatchedSolverFlags) {
  const Dataset& dataset = tiny_dataset();
  ScratchDir dir("flags");
  ReconstructionRequest request = recovery_request(dir.path());
  request.iterations = 2;
  Reconstructor reconstructor(dataset);
  (void)reconstructor.run(request);

  ckpt::RestoreFilter wrong_mode;
  wrong_mode.update_mode = static_cast<int>(UpdateMode::kSgd);  // run was full-batch
  EXPECT_FALSE(ckpt::load_newest_valid(dir.path(), wrong_mode).has_value());

  ckpt::RestoreFilter wrong_probe;
  wrong_probe.refine_probe = 1;  // run did not refine the probe
  EXPECT_FALSE(ckpt::load_newest_valid(dir.path(), wrong_probe).has_value());
}

}  // namespace
}  // namespace ptycho
