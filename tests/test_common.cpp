// Unit tests for src/common: rng, options, memory hooks, timers, logging,
// CRC-32.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/memory.hpp"
#include "common/options.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"

namespace ptycho {
namespace {

TEST(Error, CheckThrowsWithContext) {
  try {
    PTYCHO_CHECK(1 == 2, "one is not " << 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, RequirePassesOnTrue) { EXPECT_NO_THROW(PTYCHO_REQUIRE(true, "fine")); }

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 40000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(13);
  for (const double mean : {0.5, 5.0, 200.0}) {
    const int n = 20000;
    double acc = 0.0;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(acc / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(17);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(23);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s0.next_u64() == s1.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha", "1.5",  "--beta=7", "--flag",
                        "--gamma",   "-2",      "pos1", "--list",   "1,2,3"};
  Options opts = Options::parse(static_cast<int>(std::size(argv)), argv);
  EXPECT_DOUBLE_EQ(opts.get_double("alpha", 0), 1.5);
  EXPECT_EQ(opts.get_int("beta", 0), 7);
  EXPECT_TRUE(opts.get_bool("flag", false));
  EXPECT_EQ(opts.get_int("gamma", 0), -2);
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
  const auto list = opts.get_int_list("list", {});
  EXPECT_EQ(list, (std::vector<long long>{1, 2, 3}));
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opts = Options::parse(1, argv);
  EXPECT_EQ(opts.get_int("missing", 42), 42);
  EXPECT_EQ(opts.get_string("missing", "d"), "d");
  EXPECT_FALSE(opts.get_bool("missing", false));
  EXPECT_EQ(opts.get_int_list("missing", {9}), (std::vector<long long>{9}));
}

TEST(Options, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--x", "abc"};
  Options opts = Options::parse(3, argv);
  EXPECT_THROW((void)opts.get_int("x", 0), Error);
  EXPECT_THROW((void)opts.get_double("x", 0), Error);
  EXPECT_THROW((void)opts.get_bool("x", false), Error);
}

TEST(Memory, TrackedAllocReportsToHooks) {
  static thread_local std::size_t allocated = 0;
  static thread_local std::size_t freed = 0;
  allocated = freed = 0;
  AllocHooks hooks;
  hooks.on_alloc = [](void*, std::size_t b) { allocated += b; };
  hooks.on_free = [](void*, std::size_t b) { freed += b; };
  const AllocHooks prev = set_thread_alloc_hooks(hooks);

  void* p = tracked_alloc(1000);
  EXPECT_EQ(allocated, 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kBufferAlignment, 0u);
  tracked_free(p, 1000);
  EXPECT_EQ(freed, 1000u);

  set_thread_alloc_hooks(prev);
}

TEST(Memory, HooksAreThreadLocal) {
  static thread_local std::size_t local_bytes = 0;
  AllocHooks hooks;
  hooks.on_alloc = [](void*, std::size_t b) { local_bytes += b; };
  const AllocHooks prev = set_thread_alloc_hooks(hooks);

  std::thread other([] {
    // No hooks installed on this thread: allocation must not crash and
    // must not touch the main thread's counter.
    void* p = tracked_alloc(64);
    tracked_free(p, 64);
  });
  other.join();
  EXPECT_EQ(local_bytes, 0u);
  set_thread_alloc_hooks(prev);
}

TEST(Memory, ZeroByteAllocationValid) {
  void* p = tracked_alloc(0);
  EXPECT_NE(p, nullptr);
  tracked_free(p, 0);
}

TEST(Timer, PhaseProfilerAccumulates) {
  PhaseProfiler prof;
  prof.add("compute", 1.5);
  prof.add("compute", 0.5);
  prof.add("wait", 0.25);
  EXPECT_DOUBLE_EQ(prof.total("compute"), 2.0);
  EXPECT_DOUBLE_EQ(prof.total("wait"), 0.25);
  EXPECT_DOUBLE_EQ(prof.total("absent"), 0.0);
}

TEST(Timer, PhaseProfilerMerge) {
  PhaseProfiler a;
  PhaseProfiler b;
  a.add("x", 1.0);
  b.add("x", 2.0);
  b.add("y", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.total("y"), 3.0);
}

TEST(Timer, ScopedPhaseRecordsElapsed) {
  PhaseProfiler prof;
  {
    ScopedPhase scope(prof, "scope");
    double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
    // Keep the loop from being optimized out.
    EXPECT_GE(sink, 0.0);
  }
  EXPECT_GT(prof.total("scope"), 0.0);
}

TEST(Timer, WallTimerMonotone) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Log, ThresholdFilters) {
  const log::Level prev = log::threshold();
  log::set_threshold(log::Level::kOff);
  log::info() << "suppressed message";
  log::set_threshold(log::Level::kDebug);
  EXPECT_EQ(log::threshold(), log::Level::kDebug);
  log::set_threshold(prev);
}

// ---- CRC-32 -------------------------------------------------------------------

/// Textbook byte-at-a-time CRC-32 (reflected 0xEDB88320), the reference
/// the production slice-by-16 code must match bit for bit.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n, std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return ~crc;
}

/// Deterministic filler bytes (32-bit LCG, top byte of each step).
std::vector<unsigned char> lcg_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<unsigned char> out(n);
  for (auto& b : out) {
    seed = seed * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(seed >> 24);
  }
  return out;
}

TEST(Crc32, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(check.data(), 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  // Lengths straddle the 16-byte block several times over, offsets cover
  // every alignment of the block loads, and every split point checks that
  // chaining through a partial block is exact.
  const std::vector<unsigned char> buf = lcg_bytes(300 + 16, 12345u);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = reference_crc32(p, len);
      ASSERT_EQ(crc32(p, len), want) << "offset " << offset << " len " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32(p + split, len - split, crc32(p, split)), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// The two golden literals below were computed by the byte-at-a-time CRC
// that checkpoint format v2 and wire protocol v2 shipped with. They pin
// both formats: a CRC change that alters a single stored byte fails here.

TEST(Crc32, GoldenCheckpointShardV2) {
  namespace fs = std::filesystem;
  const std::string path = (fs::temp_directory_path() / "ptycho_common_crc_shard.bin").string();
  {
    ckpt::Writer w(path, 0x5054594348534844ULL, 2);
    w.u32(7);
    w.i64(-3);
    w.f64(0.5);
    w.str("shard");
    w.rect(Rect{2, 3, 64, 80});
    // More than one 4096-element encode chunk, with exactly representable
    // values so the encoded bytes are host-independent.
    std::vector<cplx> field(5000);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = cplx(static_cast<real>(static_cast<int>(i % 97) - 48),
                      static_cast<real>(i % 89) * real(0.25));
    }
    w.cplx_array(field.data(), field.size());
    w.finish();
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                         std::istreambuf_iterator<char>());
  in.close();
  std::filesystem::remove(path);
  ASSERT_EQ(bytes.size(), 40097u);
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t stored = static_cast<std::uint32_t>(bytes[body]) |
                               (static_cast<std::uint32_t>(bytes[body + 1]) << 8) |
                               (static_cast<std::uint32_t>(bytes[body + 2]) << 16) |
                               (static_cast<std::uint32_t>(bytes[body + 3]) << 24);
  constexpr std::uint32_t kGolden = 0xCD0CAC56u;
  EXPECT_EQ(stored, kGolden);
  EXPECT_EQ(crc32(bytes.data(), body), kGolden);
}

TEST(Crc32, GoldenWireFrameV2) {
  // Mirrors the socket transport's 40-byte frame header; frames travel in
  // host byte order, so the literal holds on little-endian hosts.
  if constexpr (std::endian::native != std::endian::little) GTEST_SKIP();
  struct WireHeader {
    std::uint32_t magic = 0x50545946u;  // "PTYF"
    std::uint32_t type = 1;             // kData
    std::int32_t src = 2;
    std::int32_t dst = 1;
    std::int64_t tag = 0x0001000200000003;
    std::uint64_t count = 4096;  // cplx elements
    std::uint32_t generation = 7;
    std::uint32_t checksum = 0;  // zeroed while checksumming
  };
  static_assert(sizeof(WireHeader) == 40);
  const WireHeader header;
  const std::vector<unsigned char> payload = lcg_bytes(header.count * sizeof(cplx), 777u);
  const std::uint32_t crc =
      crc32(payload.data(), payload.size(), crc32(&header, sizeof(header)));
  EXPECT_EQ(crc, 0x72F893BAu);
}

}  // namespace
}  // namespace ptycho
