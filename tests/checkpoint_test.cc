// Snapshot file format tests: round trips (including ring payload blobs for
// every ring serde), atomicity of rewrite, rejection of damaged files, and
// Checkpoint() under concurrent snapshot readers (the written state must be
// a published epoch, never a mid-build hybrid).
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/engines/durable_engine.h"
#include "incr/engines/engine.h"
#include "incr/ring/bool_semiring.h"
#include "incr/ring/covar_ring.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/minplus_semiring.h"
#include "incr/ring/product_ring.h"
#include "incr/ring/provenance.h"
#include "incr/store/checkpoint.h"
#include "incr/store/recover.h"
#include "incr/store/serde.h"
#include "incr/util/rng.h"

namespace incr::store {
namespace {

std::string TestPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "ckpt_test_" + name + ".ickp";
  std::remove(path.c_str());
  return path;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, RoundTrip) {
  const std::string path = TestPath("roundtrip");
  SnapshotData snap;
  snap.ring_name = "int";
  snap.lsn = 12345;
  snap.dict_blob = std::string("\x00\x01\x02 dict", 8);
  snap.state = std::string(10000, '\x7f');
  snap.state[777] = '\x00';
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());

  auto back = ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->ring_name, "int");
  EXPECT_EQ(back->lsn, 12345u);
  EXPECT_EQ(back->dict_blob, snap.dict_blob);
  EXPECT_EQ(back->state, snap.state);
}

TEST(CheckpointTest, EmptyBlobsRoundTrip) {
  const std::string path = TestPath("empty");
  SnapshotData snap;
  snap.ring_name = "bool";
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  auto back = ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->lsn, 0u);
  EXPECT_TRUE(back->dict_blob.empty());
  EXPECT_TRUE(back->state.empty());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadSnapshotFile(TestPath("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, RewriteReplacesAtomically) {
  const std::string path = TestPath("rewrite");
  SnapshotData snap;
  snap.ring_name = "int";
  snap.lsn = 1;
  snap.state = "old";
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  snap.lsn = 2;
  snap.state = "new";
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  auto back = ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->lsn, 2u);
  EXPECT_EQ(back->state, "new");
}

TEST(CheckpointTest, AnySingleByteFlipIsRejected) {
  const std::string path = TestPath("flip");
  SnapshotData snap;
  snap.ring_name = "int";
  snap.lsn = 99;
  snap.dict_blob = "dictionary";
  snap.state = std::string(500, 's');
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  const std::string good = FileBytes(path);
  Rng rng(3);
  for (int trial = 0; trial < 128; ++trial) {
    std::string bad = good;
    bad[rng.Uniform(bad.size())] ^= 0x40;
    WriteBytes(path, bad);
    EXPECT_FALSE(ReadSnapshotFile(path).ok());
  }
}

TEST(CheckpointTest, TruncationIsRejected) {
  const std::string path = TestPath("trunc");
  SnapshotData snap;
  snap.ring_name = "int";
  snap.state = std::string(100, 's');
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  const std::string good = FileBytes(path);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteBytes(path, good.substr(0, cut));
    EXPECT_FALSE(ReadSnapshotFile(path).ok()) << "cut=" << cut;
  }
}

TEST(CheckpointTest, TrailingGarbageIsRejected) {
  const std::string path = TestPath("trailing");
  SnapshotData snap;
  snap.ring_name = "int";
  snap.state = "state";
  ASSERT_TRUE(WriteSnapshotFile(path, snap).ok());
  WriteBytes(path, FileBytes(path) + "garbage");
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

// The snapshot state blob is ring-payload bytes produced by PayloadSerde;
// check every ring's serde round-trips exactly (doubles bit-for-bit).
template <RingType R>
void CheckPayloadRoundTrip(const typename R::Value& v) {
  ByteWriter w;
  PayloadSerde<R>::Write(w, v);
  ByteReader r(w.data());
  typename R::Value back{};
  ASSERT_TRUE(PayloadSerde<R>::Read(r, &back));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(back == v) << "ring " << RingSerdeName<R>();
}

TEST(CheckpointTest, PayloadSerdeCoversAllRings) {
  CheckPayloadRoundTrip<IntRing>(-42);
  CheckPayloadRoundTrip<RealRing>(0.1 + 0.2);  // not exactly representable
  CheckPayloadRoundTrip<BoolSemiring>(true);
  CheckPayloadRoundTrip<MinPlusSemiring>(int64_t{7});
  CheckPayloadRoundTrip<ProductRing<IntRing, RealRing>>({3, 2.5e-300});
  CovarValue<2> cv;
  cv.count = 5;
  cv.sum = {1.25, -0.1};
  cv.prod = {0.3, 0.7, 0.7, 1e300};
  CheckPayloadRoundTrip<CovarRing<2>>(cv);
  Polynomial p = Polynomial::Var(3);
  p = ProvenanceRing::Add(p, ProvenanceRing::Mul(Polynomial::Var(1),
                                                 Polynomial::Var(2)));
  CheckPayloadRoundTrip<ProvenanceRing>(p);
}

// ----------------------------------------------------------------------
// Checkpoint() while snapshot readers are live.
//
// The maintainer periodically checkpoints a durable engine whose inner
// view tree serves snapshot reads, with reader threads enumerating and one
// handle held across the whole run. Every written snapshot must serialize
// a published epoch: its state bytes equal those of an identically
// configured shadow engine that applied the same batch prefix. A
// checkpoint that raced the version build would serialize a hybrid no
// sequential execution can produce.

ViewTreeEngine<IntRing> MakeServeEngine() {
  enum : Var { A = 0, B = 1, C = 2 };
  Query q("Q", Schema{A, B, C},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{A, C}}});
  auto tree = ViewTree<IntRing>::Make(q);
  INCR_CHECK(tree.ok());
  return ViewTreeEngine<IntRing>(*std::move(tree));
}

std::string EngineDumpBytes(IvmEngine<IntRing>& e) {
  ByteWriter w;
  Status st = e.DumpState(w);
  EXPECT_TRUE(st.ok()) << st.message();
  return w.Take();
}

TEST(CheckpointTest, CheckpointUnderConcurrentSnapshotReaders) {
  const std::string dir = ::testing::TempDir() + "ckpt_concurrent";
  ASSERT_TRUE(EnsureDir(dir).ok());
  std::remove(WalPath(dir).c_str());
  std::remove(SnapshotPath(dir).c_str());

  constexpr size_t kBatches = 200;
  constexpr size_t kBatch = 20;
  constexpr size_t kCheckpointEvery = 40;

  EngineOptions opts;
  opts.durability_dir = dir;
  opts.fsync = false;
  opts.snapshot_reads = true;
  // One handle is held across all batches, so every epoch published during
  // the run stays retained; size the cap accordingly.
  opts.max_retained_epochs = kBatches + 16;

  auto live = DurableEngine<IntRing>::Open(
      std::make_unique<ViewTreeEngine<IntRing>>(MakeServeEngine()), opts,
      nullptr);
  ASSERT_TRUE(live.ok()) << live.status().message();
  auto* vt = dynamic_cast<ViewTreeEngine<IntRing>*>(&(*live)->inner());
  ASSERT_NE(vt, nullptr);
  ASSERT_TRUE(vt->tree().snapshots_enabled());

  ViewTreeEngine<IntRing> shadow = MakeServeEngine();
  EngineOptions shadow_opts;
  shadow_opts.snapshot_reads = true;
  shadow_opts.max_retained_epochs = opts.max_retained_epochs;
  shadow.Configure(shadow_opts);

  // Deterministic small-domain churn keeps every retained version tiny.
  Rng rng(77);
  std::vector<Delta<IntRing>> updates;
  updates.reserve(kBatches * kBatch);
  for (size_t i = 0; i < kBatches * kBatch; ++i) {
    const char* rel = rng.Chance(0.5) ? "R" : "S";
    Tuple t{rng.UniformInt(0, 7), rng.UniformInt(0, 7)};
    const int64_t m = rng.Chance(0.7) ? 1 : -1;
    updates.push_back(Delta<IntRing>{rel, std::move(t), m});
  }

  // A handle pinned before any load, held until after the joins.
  ViewTreeSnapshot<IntRing> held = vt->tree().Snapshot();
  const uint64_t pinned_epoch = held.epoch();
  const int64_t pinned_agg = held.Aggregate();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (*live)->EnumerateSnapshot(nullptr);
      }
    });
  }

  for (size_t b = 0; b < kBatches; ++b) {
    std::span<const Delta<IntRing>> span(updates.data() + b * kBatch, kBatch);
    (*live)->ApplyBatch(span);
    shadow.ApplyBatch(span);
    if ((b + 1) % kCheckpointEvery == 0) {
      ASSERT_TRUE((*live)->Checkpoint().ok()) << "batch " << b;
      auto snap = ReadSnapshotFile(SnapshotPath(dir));
      ASSERT_TRUE(snap.ok()) << snap.status().message();
      // The checkpointed state is exactly the published epoch after b+1
      // batches — bit-identical to the shadow's serialization.
      EXPECT_EQ(snap->state, EngineDumpBytes(shadow)) << "batch " << b;
    }
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(held.epoch(), pinned_epoch);
  EXPECT_EQ(held.Aggregate(), pinned_agg);
  EXPECT_EQ(vt->tree().published_epoch(), pinned_epoch + kBatches);
  EXPECT_EQ(EngineDumpBytes(**live), EngineDumpBytes(shadow));
}

}  // namespace
}  // namespace incr::store
