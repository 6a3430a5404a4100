// EngineOptions::FromEnv hardening: environment variables come from shells
// and CI configs, so malformed or absurd values must degrade to defaults
// with a warning — never crash, never smuggle a nonsense value into the
// engine layer. Table-driven over every variable the bridge reads.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "incr/engines/engine_options.h"
#include "incr/util/env.h"
#include "incr/util/thread_pool.h"

namespace incr {
namespace {

const char* const kAllVars[] = {
    "INCR_THREADS",    "INCR_MORSEL_BYTES",
    "INCR_OBS",        "INCR_FSYNC",            "INCR_WAL_BUFFER_BYTES",
    "INCR_GROUP_COMMIT_US",                     "INCR_STORAGE_BACKEND",
    "INCR_STORAGE_PAGE_BYTES",                  "INCR_STORAGE_POOL_BYTES",
    "INCR_STORAGE_SPILL_DIR",
};

// Clears every FromEnv variable around each test so cases are independent
// of each other and of the invoking shell.
class EngineOptionsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearAll(); }
  void TearDown() override { ClearAll(); }

  static void ClearAll() {
    for (const char* v : kAllVars) unsetenv(v);
  }
};

TEST_F(EngineOptionsEnvTest, UnsetEnvironmentYieldsDefaults) {
  EngineOptions opts = EngineOptions::FromEnv();
  EngineOptions defaults;
  EXPECT_EQ(opts.threads, defaults.threads);
  EXPECT_FALSE(opts.obs.has_value());
  EXPECT_EQ(opts.fsync, defaults.fsync);
  EXPECT_EQ(opts.wal_buffer_bytes, defaults.wal_buffer_bytes);
  EXPECT_EQ(opts.group_commit_window_us, defaults.group_commit_window_us);
}

TEST_F(EngineOptionsEnvTest, ValidValuesAreApplied) {
  setenv("INCR_THREADS", "8", 1);
  setenv("INCR_MORSEL_BYTES", "4096", 1);
  setenv("INCR_WAL_BUFFER_BYTES", "65536", 1);
  setenv("INCR_GROUP_COMMIT_US", "0", 1);
  setenv("INCR_FSYNC", "off", 1);
  setenv("INCR_OBS", "1", 1);
  EngineOptions opts = EngineOptions::FromEnv();
  EXPECT_EQ(opts.threads, 8u);
  EXPECT_EQ(opts.morsel_bytes, 4096u);
  EXPECT_EQ(opts.wal_buffer_bytes, 65536u);
  EXPECT_EQ(opts.group_commit_window_us, 0u);
  EXPECT_FALSE(opts.fsync);
  ASSERT_TRUE(opts.obs.has_value());
  EXPECT_TRUE(*opts.obs);
}

TEST_F(EngineOptionsEnvTest, MalformedNumbersFallBackToDefaults) {
  const EngineOptions defaults;
  // Leading whitespace is not here: strtol conventionally skips it, and
  // " 4" meaning 4 surprises nobody. Trailing junk does get rejected.
  const std::vector<std::string> bad = {"abc", "12abc", "",    "4 ",
                                        "0x10", "1e3",  "--2", "+"};
  for (const std::string& v : bad) {
    ClearAll();
    setenv("INCR_THREADS", v.c_str(), 1);
    setenv("INCR_WAL_BUFFER_BYTES", v.c_str(), 1);
    setenv("INCR_GROUP_COMMIT_US", v.c_str(), 1);
    EngineOptions opts = EngineOptions::FromEnv();
    EXPECT_EQ(opts.threads, defaults.threads) << "value '" << v << "'";
    EXPECT_EQ(opts.wal_buffer_bytes, defaults.wal_buffer_bytes)
        << "value '" << v << "'";
    EXPECT_EQ(opts.group_commit_window_us, defaults.group_commit_window_us)
        << "value '" << v << "'";
  }
}

TEST_F(EngineOptionsEnvTest, OutOfRangeValuesFallBackToDefaults) {
  const EngineOptions defaults;
  struct Case {
    const char* var;
    const char* value;
  };
  const std::vector<Case> cases = {
      {"INCR_THREADS", "-1"},
      {"INCR_THREADS", "1000000"},
      {"INCR_WAL_BUFFER_BYTES", "0"},
      {"INCR_WAL_BUFFER_BYTES", "-1"},
      {"INCR_WAL_BUFFER_BYTES", "99999999999999999"},
      {"INCR_GROUP_COMMIT_US", "-5"},
      {"INCR_GROUP_COMMIT_US", "999999999999"},  // ~11.6 days
      {"INCR_MORSEL_BYTES", "-1"},
      {"INCR_MORSEL_BYTES", "99999999999999999"},
  };
  for (const Case& c : cases) {
    ClearAll();
    setenv(c.var, c.value, 1);
    EngineOptions opts = EngineOptions::FromEnv();
    EXPECT_EQ(opts.threads, defaults.threads)
        << c.var << "=" << c.value;
    EXPECT_EQ(opts.morsel_bytes, defaults.morsel_bytes)
        << c.var << "=" << c.value;
    EXPECT_EQ(opts.wal_buffer_bytes, defaults.wal_buffer_bytes)
        << c.var << "=" << c.value;
    EXPECT_EQ(opts.group_commit_window_us, defaults.group_commit_window_us)
        << c.var << "=" << c.value;
  }
}

TEST_F(EngineOptionsEnvTest, BoundaryValuesAreAccepted) {
  setenv("INCR_THREADS", "0", 1);  // 0 = auto is a valid request
  EngineOptions opts = EngineOptions::FromEnv();
  EXPECT_EQ(opts.threads, 0u);

  ClearAll();
  setenv("INCR_THREADS", std::to_string(EngineOptions::kMaxThreads).c_str(),
         1);
  opts = EngineOptions::FromEnv();
  EXPECT_EQ(opts.threads, EngineOptions::kMaxThreads);
}

// ThreadPool::DefaultThreads reads INCR_THREADS through this one parser
// and range. Only the parser is exercised: no pool is built at these
// values.
TEST(ParseEnvIntTest, ThreadCountsOutsideOneToMaxThreadsAreRejected) {
  const long long max = static_cast<long long>(ThreadPool::kMaxThreads);
  for (const char* bad : {"100000", "0", "-4", "16x", ""}) {
    long long v = 7;
    EXPECT_FALSE(ParseEnvInt("INCR_THREADS", bad, 1, max, &v)) << bad;
    EXPECT_EQ(v, 7) << bad;  // untouched
  }
  long long v = 0;
  EXPECT_TRUE(ParseEnvInt("INCR_THREADS", "1", 1, max, &v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(
      ParseEnvInt("INCR_THREADS", std::to_string(max).c_str(), 1, max, &v));
  EXPECT_EQ(v, max);
}

TEST_F(EngineOptionsEnvTest, FlagVariablesAcceptTheOffSpellings) {
  for (const char* off : {"off", "0", "false"}) {
    ClearAll();
    setenv("INCR_OBS", off, 1);
    setenv("INCR_FSYNC", off, 1);
    EngineOptions opts = EngineOptions::FromEnv();
    ASSERT_TRUE(opts.obs.has_value()) << off;
    EXPECT_FALSE(*opts.obs) << off;
    EXPECT_FALSE(opts.fsync) << off;
  }
  // Anything else — including garbage — reads as "on"; a typo enabling
  // observability or fsync is safe, a typo disabling durability is not.
  ClearAll();
  setenv("INCR_FSYNC", "fales", 1);
  EXPECT_TRUE(EngineOptions::FromEnv().fsync);
}

// ---------------------------------------------------------------------------
// Storage block (INCR_STORAGE_* + StorageOptions::Validated): contradictory
// combinations clamp with a warning, never abort and never reach PageStore.

TEST_F(EngineOptionsEnvTest, StorageDefaultsToHeap) {
  EngineOptions opts = EngineOptions::FromEnv();
  EXPECT_FALSE(opts.storage.paged());
  StorageOptions defaults;
  EXPECT_EQ(opts.storage.page_bytes, defaults.page_bytes);
  EXPECT_EQ(opts.storage.buffer_pool_bytes, defaults.buffer_pool_bytes);
  EXPECT_TRUE(opts.storage.spill_dir.empty());
}

TEST_F(EngineOptionsEnvTest, StorageEnvIsApplied) {
  setenv("INCR_STORAGE_BACKEND", "paged", 1);
  setenv("INCR_STORAGE_PAGE_BYTES", "4096", 1);
  setenv("INCR_STORAGE_POOL_BYTES", "1048576", 1);
  setenv("INCR_STORAGE_SPILL_DIR", "/tmp/incr-spill", 1);
  EngineOptions opts = EngineOptions::FromEnv();
  EXPECT_TRUE(opts.storage.paged());
  EXPECT_EQ(opts.storage.page_bytes, 4096u);
  EXPECT_EQ(opts.storage.buffer_pool_bytes, 1048576u);
  EXPECT_EQ(opts.storage.spill_dir, "/tmp/incr-spill");
}

TEST_F(EngineOptionsEnvTest, UnknownBackendNameIsIgnored) {
  setenv("INCR_STORAGE_BACKEND", "mmap", 1);
  EXPECT_FALSE(EngineOptions::FromEnv().storage.paged());
}

TEST_F(EngineOptionsEnvTest, PagedWithoutSpillDirDemotesToHeap) {
  // The contradiction FromEnv itself resolves via Validated(): a paged
  // backend with nowhere to spill degrades to heap instead of failing at
  // the first Pin.
  setenv("INCR_STORAGE_BACKEND", "paged", 1);
  EngineOptions opts = EngineOptions::FromEnv();
  EXPECT_FALSE(opts.storage.paged());
}

TEST(StorageOptionsTest, ValidatedClampsPageBytes) {
  StorageOptions so;
  so.backend = StorageBackend::kPaged;
  so.spill_dir = "/tmp/incr-spill";
  so.page_bytes = 1;  // below the floor
  StorageOptions v = so.Validated();
  EXPECT_EQ(v.page_bytes, StorageOptions::kMinPageBytes);

  so.page_bytes = StorageOptions::kMaxPageBytes * 2;
  v = so.Validated();
  EXPECT_EQ(v.page_bytes, StorageOptions::kMaxPageBytes);
}

TEST(StorageOptionsTest, ValidatedClampsPoolBelowMinFrames) {
  StorageOptions so;
  so.backend = StorageBackend::kPaged;
  so.spill_dir = "/tmp/incr-spill";
  so.page_bytes = 4096;
  so.buffer_pool_bytes = 4096;  // one frame: cannot make progress
  StorageOptions v = so.Validated();
  EXPECT_GE(v.buffer_pool_bytes, v.page_bytes * StorageOptions::kMinFrames);
}

TEST(StorageOptionsTest, ValidatedLeavesAConsistentConfigAlone) {
  StorageOptions so;
  so.backend = StorageBackend::kPaged;
  so.spill_dir = "/tmp/incr-spill";
  so.page_bytes = 8192;
  so.buffer_pool_bytes = 1u << 20;
  StorageOptions v = so.Validated();
  EXPECT_TRUE(v.paged());
  EXPECT_EQ(v.page_bytes, so.page_bytes);
  EXPECT_EQ(v.buffer_pool_bytes, so.buffer_pool_bytes);
  EXPECT_EQ(v.spill_dir, so.spill_dir);
}

}  // namespace
}  // namespace incr
