// Snapshot isolation: the epoch manager's pin/publish/reclaim protocol,
// the view tree's epoch-versioned read path (EnableSnapshots / Snapshot /
// EnumerateSnapshot), and the serving contract — readers on pinned
// immutable versions while ONE maintainer thread keeps writing. The
// multi-threaded tests here are the TSan targets for the feature.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/engines/engine.h"
#include "incr/obs/explain.h"
#include "incr/obs/recorder.h"
#include "incr/ring/int_ring.h"
#include "incr/util/epoch.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

enum : Var { A = 0, B = 1, C = 2 };

ViewTreeEngine<IntRing> MakeEngine() {
  Query q("Q", Schema{A, B, C},
          {Atom{"R", Schema{A, B}}, Atom{"S", Schema{A, C}}});
  auto tree = ViewTree<IntRing>::Make(q);
  INCR_CHECK(tree.ok());
  return ViewTreeEngine<IntRing>(*std::move(tree));
}

// Small value domain keeps every version tiny — the held-snapshot tests
// retain hundreds of versions at once.
std::vector<Delta<IntRing>> DrawUpdates(size_t n, uint64_t seed,
                                        bool insert_only = false) {
  Rng rng(seed);
  std::vector<Delta<IntRing>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Delta<IntRing> d;
    d.relation.assign(rng.Chance(0.5) ? "R" : "S", 1);
    d.tuple = Tuple{rng.UniformInt(0, 7), rng.UniformInt(0, 7)};
    d.delta = insert_only || rng.Chance(0.7) ? 1 : -1;
    out.push_back(std::move(d));
  }
  return out;
}

void ApplyBatches(ViewTreeEngine<IntRing>& e,
                  const std::vector<Delta<IntRing>>& updates, size_t batch) {
  for (size_t off = 0; off < updates.size(); off += batch) {
    size_t n = std::min(batch, updates.size() - off);
    e.ApplyBatch(std::span<const Delta<IntRing>>(updates.data() + off, n));
  }
}

using RowList = std::vector<std::pair<Tuple, int64_t>>;

RowList SnapRows(const ViewTreeSnapshot<IntRing>& s) {
  RowList out;
  for (ViewTreeEnumerator<IntRing> it = s.Enumerate(); it.Valid();
       it.Next()) {
    out.emplace_back(it.tuple(), it.payload());
  }
  return out;
}

std::map<Tuple, int64_t> EnumMap(IvmEngine<IntRing>& e) {
  std::map<Tuple, int64_t> out;
  e.Enumerate([&](const Tuple& t, const int64_t& p) { out[t] += p; });
  return out;
}

std::map<Tuple, int64_t> SnapEnumMap(IvmEngine<IntRing>& e) {
  std::map<Tuple, int64_t> out;
  e.EnumerateSnapshot([&](const Tuple& t, const int64_t& p) { out[t] += p; });
  return out;
}

std::string DumpBytes(IvmEngine<IntRing>& e) {
  store::ByteWriter w;
  Status st = e.DumpState(w);
  EXPECT_TRUE(st.ok()) << st.message();
  return w.Take();
}

EngineOptions SnapshotOpts(size_t max_retained, size_t threads = 1) {
  EngineOptions o;
  o.threads = threads;
  o.snapshot_reads = true;
  o.max_retained_epochs = max_retained;
  return o;
}

// ----------------------------------------------------------------------
// epoch::Manager

TEST(EpochManagerTest, PublishPinAndReclaimFloor) {
  epoch::Manager m;
  EXPECT_EQ(m.published(), 0u);
  EXPECT_EQ(m.MinActive(), epoch::Manager::kNone);
  m.Publish(1);
  EXPECT_EQ(m.published(), 1u);
  {
    epoch::ReadGuard g(&m);
    EXPECT_EQ(g.epoch(), 1u);
    EXPECT_EQ(m.MinActive(), 1u);
    EXPECT_EQ(m.ActiveReaders(), 1u);
    m.Publish(2);
    // The old pin keeps the reclamation floor at 1 while a fresh pin
    // lands on the new epoch.
    epoch::ReadGuard g2(&m);
    EXPECT_EQ(g2.epoch(), 2u);
    EXPECT_EQ(m.MinActive(), 1u);
    EXPECT_EQ(m.ActiveReaders(), 2u);
  }
  EXPECT_EQ(m.MinActive(), epoch::Manager::kNone);
  EXPECT_EQ(m.ActiveReaders(), 0u);
}

TEST(EpochManagerTest, KnowsWhichPinsAreTheCallersOwn) {
  epoch::Manager m;
  m.Publish(1);
  EXPECT_FALSE(m.HoldsOwnPinAtOrBelow(5));  // no pins at all
  std::atomic<bool> pinned{false}, done{false};
  std::thread other([&] {
    epoch::ReadGuard theirs(&m);  // pins 1, beside the caller's pin below
    pinned.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  EXPECT_FALSE(m.HoldsOwnPinAtOrBelow(5));  // only the other thread's pin
  {
    epoch::ReadGuard mine(&m);  // pins 1
    m.Publish(2);
    EXPECT_TRUE(m.HoldsOwnPinAtOrBelow(1));  // another pin at 1 or not
    EXPECT_TRUE(m.HoldsOwnPinAtOrBelow(7));
    EXPECT_FALSE(m.HoldsOwnPinAtOrBelow(0));  // nothing that low
  }
  EXPECT_FALSE(m.HoldsOwnPinAtOrBelow(5));
  done.store(true);
  other.join();
}

TEST(EpochManagerTest, GuardMoveTransfersThePin) {
  epoch::Manager m;
  m.Publish(5);
  epoch::ReadGuard outer(&m);
  {
    epoch::ReadGuard inner = std::move(outer);
    EXPECT_EQ(inner.epoch(), 5u);
    EXPECT_EQ(m.ActiveReaders(), 1u);  // one pin, not two
  }
  // The moved-to guard released on scope exit; the moved-from one must
  // not double-release.
  EXPECT_EQ(m.ActiveReaders(), 0u);
  EXPECT_EQ(m.MinActive(), epoch::Manager::kNone);
}

TEST(EpochManagerTest, ManyConcurrentPinsObserveMonotoneEpochs) {
  epoch::Manager m;
  m.Publish(1);
  std::atomic<bool> stop{false};
  std::atomic<bool> fail{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        epoch::ReadGuard g(&m);
        if (g.epoch() < last || g.epoch() > m.published()) {
          fail.store(true);
          return;
        }
        last = g.epoch();
      }
    });
  }
  for (uint64_t e = 2; e <= 2000; ++e) m.Publish(e);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(fail.load());
  EXPECT_EQ(m.published(), 2000u);
}

// ----------------------------------------------------------------------
// View-tree snapshot reads

TEST(SnapshotTest, ExclusiveFallbackWithoutSnapshots) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  ApplyBatches(e, DrawUpdates(200, 1), 50);
  EXPECT_FALSE(e.tree().snapshots_enabled());
  EXPECT_EQ(e.tree().published_epoch(), 0u);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
}

TEST(SnapshotTest, PinnedSnapshotIsStableUnderWrites) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(64));
  ApplyBatches(e, DrawUpdates(200, 2), 50);

  ViewTreeSnapshot<IntRing> snap = e.tree().Snapshot();
  const uint64_t pinned = snap.epoch();
  const RowList before = SnapRows(snap);
  const int64_t agg_before = snap.Aggregate();

  ApplyBatches(e, DrawUpdates(300, 3), 10);  // 30 more published epochs

  // The held handle still reads the pinned version, bit-identically.
  EXPECT_EQ(snap.epoch(), pinned);
  EXPECT_EQ(SnapRows(snap), before);
  EXPECT_EQ(snap.Aggregate(), agg_before);

  // A fresh snapshot sees the new head, which matches the exclusive view.
  ViewTreeSnapshot<IntRing> head = e.tree().Snapshot();
  EXPECT_EQ(head.epoch(), pinned + 30);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
}

TEST(SnapshotTest, SingleTupleUpdatePublishesOneEpoch) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(4));
  const uint64_t e0 = e.tree().published_epoch();
  EXPECT_GE(e0, 1u);  // EnableSnapshots publishes the current state
  e.Update("R", Tuple{1, 2}, 1);
  EXPECT_EQ(e.tree().published_epoch(), e0 + 1);
  e.Update("S", Tuple{1, 3}, 1);
  EXPECT_EQ(e.tree().published_epoch(), e0 + 2);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
}

TEST(SnapshotTest, BatchDumpBitIdenticalToExclusiveEngine) {
  // Identical ApplyBatch sequences must serialize identically whether or
  // not snapshots are enabled: snapshot-mode DumpState serializes the
  // caught-up build state, i.e. exactly the published epoch.
  ViewTreeEngine<IntRing> snap_eng = MakeEngine();
  snap_eng.Configure(SnapshotOpts(3));
  ViewTreeEngine<IntRing> plain_eng = MakeEngine();
  auto updates = DrawUpdates(400, 4);
  ApplyBatches(snap_eng, updates, 25);
  ApplyBatches(plain_eng, updates, 25);
  EXPECT_EQ(DumpBytes(snap_eng), DumpBytes(plain_eng));
}

TEST(SnapshotTest, RecyclingKeepsRetainedVersionsBounded) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(2));
  ViewTreeEngine<IntRing> shadow = MakeEngine();
  auto updates = DrawUpdates(600, 5);
  ApplyBatches(e, updates, 10);  // 60 published epochs
  ApplyBatches(shadow, updates, 10);
  EXPECT_EQ(e.tree().published_epoch(), 1u + 60u);
  EXPECT_LE(e.tree().RetainedVersions(), 2u);
  EXPECT_EQ(EnumMap(e), EnumMap(shadow));
  EXPECT_EQ(SnapEnumMap(e), EnumMap(shadow));
}

TEST(SnapshotTest, ThreadSwitchMidStreamStaysCorrect) {
  // SetThreads reshards the W storage, which the recycle log cannot
  // replay onto retired versions — the tree must republish and keep
  // serving correct snapshots.
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(4));
  ViewTreeEngine<IntRing> shadow = MakeEngine();
  auto first = DrawUpdates(200, 6);
  auto second = DrawUpdates(200, 7);
  ApplyBatches(e, first, 20);
  ApplyBatches(shadow, first, 20);
  e.Configure(SnapshotOpts(4, /*threads=*/2));
  ApplyBatches(e, second, 20);
  ApplyBatches(shadow, second, 20);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(shadow));
  ViewTreeSnapshot<IntRing> snap = e.tree().Snapshot();
  EXPECT_EQ(snap.epoch(), e.tree().published_epoch());
}

TEST(SnapshotTest, HeadPinnedAcrossPublishIsADeepCopy) {
  // A reader that pins the head across two publishes leaves no retired
  // version to recycle at the start of the second write (the pinned old
  // head and the new head are all that is retained), so the maintainer
  // deep-copies the head; obs counts the copy and times it. One publish
  // under the pin is not enough: the first write still recycles the
  // version retired before the pin.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const auto& m = detail::ViewTreeMetrics();
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(4));
  ApplyBatches(e, DrawUpdates(100, 11), 50);
  const uint64_t clones = m.snapshot_clones->Value();
  const uint64_t timed = m.snapshot_clone_ns->Stats().count;
  {
    ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
    ApplyBatches(e, DrawUpdates(20, 12), 10);  // two publishes under the pin
  }
  EXPECT_GT(m.snapshot_clones->Value(), clones);
  EXPECT_GT(m.snapshot_clone_ns->Stats().count, timed);
  obs::SetEnabled(was_enabled);
}

TEST(SnapshotTest, PinAcrossOnePublishIsRecycledNotCopied) {
  // Retired versions are recycled at the start of the next write, not
  // right after a publish: a reader that pins the head across exactly one
  // write and lets go before the next one leaves every version free again
  // by the time the maintainer needs one, so no deep copy is made.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const auto& m = detail::ViewTreeMetrics();
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(3));
  ApplyBatches(e, DrawUpdates(100, 15), 25);
  const uint64_t clones = m.snapshot_clones->Value();
  const uint64_t recycles = m.snapshot_recycles->Value();
  auto updates = DrawUpdates(60, 16);
  for (size_t off = 0; off < updates.size(); off += 20) {
    ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
    e.ApplyBatch(std::span<const Delta<IntRing>>(updates.data() + off, 10));
    held = e.tree().Snapshot();  // drops the old pin, holds the new head
    e.ApplyBatch(
        std::span<const Delta<IntRing>>(updates.data() + off + 10, 10));
  }
  EXPECT_EQ(m.snapshot_clones->Value(), clones);
  EXPECT_GE(m.snapshot_recycles->Value(), recycles + 6);
  obs::SetEnabled(was_enabled);
}

// Everything a maintainer-side read reports — dump bytes, the aggregate,
// the live enumeration and EXPLAIN ANALYZE's view sizes — for one engine.
void ExpectSameLiveState(ViewTreeEngine<IntRing>& snap,
                         ViewTreeEngine<IntRing>& plain, const char* step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(DumpBytes(snap), DumpBytes(plain));
  EXPECT_EQ(snap.tree().Aggregate(), plain.tree().Aggregate());
  EXPECT_EQ(EnumMap(snap), EnumMap(plain));
  obs::ExplainTree a, b;
  snap.tree().DescribeTo(&a, /*analyze=*/true);
  plain.tree().DescribeTo(&b, /*analyze=*/true);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].w_size, b.nodes[i].w_size) << "node " << i;
    EXPECT_EQ(a.nodes[i].m_size, b.nodes[i].m_size) << "node " << i;
  }
}

TEST(SnapshotTest, EveryMutatorCatchesUpBeforeItActs) {
  // Between writes a snapshot-mode tree holds no build state: reads see
  // the head, and each mutator first recycles or copies one. Drive every
  // mutator through that path, next to a plain twin fed the same calls,
  // and compare all maintainer-side reads after each step. A pin held
  // across a reshard forces the copy path as well.
  ViewTreeEngine<IntRing> snap = MakeEngine();
  // The pin below spans 7 publishes on this thread; a cap it reached
  // would make the writer wait for itself.
  snap.Configure(SnapshotOpts(16));
  ViewTreeEngine<IntRing> plain = MakeEngine();
  ExpectSameLiveState(snap, plain, "enabled");

  auto both = [&](auto&& fn) {
    fn(snap);
    fn(plain);
  };
  const auto first = DrawUpdates(120, 17);
  both([&](auto& e) { ApplyBatches(e, first, 10); });
  ExpectSameLiveState(snap, plain, "batches");
  const std::string saved = DumpBytes(plain);

  {
    ViewTreeSnapshot<IntRing> held = snap.tree().Snapshot();
    both([](auto& e) { e.tree().SetThreads(2); });
    ExpectSameLiveState(snap, plain, "SetThreads(2)");
    both([&](auto& e) { ApplyBatches(e, DrawUpdates(60, 18), 10); });
    ExpectSameLiveState(snap, plain, "parallel batches");
  }

  both([](auto& e) {
    e.tree().LoadAtom(0, Tuple{9, 9}, 2);
    e.tree().LoadAtom(1, Tuple{9, 4}, 1);
  });
  ExpectSameLiveState(snap, plain, "LoadAtom");
  both([](auto& e) { e.tree().Rebuild(); });
  ExpectSameLiveState(snap, plain, "Rebuild");
  both([&](auto& e) { ApplyBatches(e, DrawUpdates(60, 19), 10); });
  ExpectSameLiveState(snap, plain, "batches after Rebuild");

  both([](auto& e) { e.tree().SetThreads(1); });
  ExpectSameLiveState(snap, plain, "SetThreads(1)");
  both([&](auto& e) {
    store::ByteReader r(saved);
    ASSERT_TRUE(e.LoadState(r).ok());
  });
  ExpectSameLiveState(snap, plain, "LoadState");
  EXPECT_EQ(DumpBytes(snap), saved);
  both([&](auto& e) { ApplyBatches(e, DrawUpdates(60, 20), 10); });
  ExpectSameLiveState(snap, plain, "batches after LoadState");
  EXPECT_EQ(SnapEnumMap(snap), EnumMap(plain));
}

// ----------------------------------------------------------------------
// Serving: readers under a live maintainer (TSan coverage)

TEST(ServingTest, WriterStallAtRetentionCapIsRecorded) {
  // Cap 2 = head + one retirable version. With the head pinned, the first
  // write recycles the version retired before the pin and publishes; the
  // second finds both retained versions (the pinned old head and the new
  // head) unretirable at its start and yield-spins until the reader lets
  // go; obs records that stall.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Histogram* waits = detail::ViewTreeMetrics().snapshot_wait_ns;
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(2));
  ApplyBatches(e, DrawUpdates(100, 13), 50);
  const uint64_t stalls = waits->Stats().count;

  std::atomic<bool> pinned{false};
  std::thread reader([&] {
    ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
    pinned.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();
  ApplyBatches(e, DrawUpdates(20, 14), 10);  // 2nd write waits for the unpin
  reader.join();

  EXPECT_GT(waits->Stats().count, stalls);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
  obs::SetEnabled(was_enabled);
}

TEST(SnapshotDeathTest, MaintainerSelfPinFailsInsteadOfHanging) {
  // Cap 3, one pin kept on the maintainer thread itself: the third write
  // finds the cap reached and a blocking pin its own. Waiting would never
  // end, so the write fails, naming the knob, and the flight recorder's
  // fatal dump shows the wait that preceded the failure. With a second
  // reader pinning the same epoch (and never letting go) it fails the
  // same way, rather than waiting for that reader first.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  auto self_pin = [](bool second_reader) {
    ViewTreeEngine<IntRing> e = MakeEngine();
    e.Configure(SnapshotOpts(3));  // publishes epoch 1
    ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
    std::atomic<bool> pinned{false};
    std::thread other;
    if (second_reader) {
      other = std::thread([&] {
        ViewTreeSnapshot<IntRing> theirs = e.tree().Snapshot();  // epoch 1
        pinned.store(true);
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
      });
      while (!pinned.load()) std::this_thread::yield();
    }
    for (uint64_t seed = 0; seed < 4; ++seed) {  // 4 more publishes
      ApplyBatches(e, DrawUpdates(8, 30 + seed), 8);
    }
    if (other.joinable()) other.detach();
  };
  EXPECT_DEATH(self_pin(false), "max_retained_epochs");
  EXPECT_DEATH(self_pin(false), "snapshot-wait");
  EXPECT_DEATH(self_pin(true), "max_retained_epochs");
  obs::SetEnabled(was_enabled);
}

TEST(ServingTest, ReaderHoldsSnapshotAcrossThousandBatches) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  // One snapshot is held across the whole run, so every epoch published
  // meanwhile stays retained: size the cap for 1000 batches + slack.
  e.Configure(SnapshotOpts(1100));
  ApplyBatches(e, DrawUpdates(100, 8), 25);

  ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
  const uint64_t pinned = held.epoch();
  const RowList want = SnapRows(held);

  std::atomic<bool> stop{false};
  std::atomic<bool> fail{false};
  std::thread reader([&, held = std::move(held)] {
    while (!fail.load(std::memory_order_relaxed)) {
      if (SnapRows(held) != want || held.epoch() != pinned) {
        fail.store(true);
        return;
      }
      if (stop.load(std::memory_order_acquire)) return;
    }
  });

  auto updates = DrawUpdates(10000, 9);
  ApplyBatches(e, updates, 10);  // 1000 published epochs under the pin
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(fail.load()) << "held snapshot changed under writes";
  EXPECT_EQ(e.tree().published_epoch(), pinned + 1000);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
}

TEST(ServingTest, ReaderTakesOverTheMaintainersSnapshot) {
  // Cap 3, as in MaintainerSelfPinFailsInsteadOfHanging, but the pin taken
  // on the maintainer moves to a reader, which reads it once. From then on
  // it is the reader's pin: the third write waits for the reader instead
  // of failing the self-pin check, and the reader lets go once it sees
  // that wait in the flight recorder.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::ResetRecorder();
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(3));  // publishes epoch 1
  ApplyBatches(e, DrawUpdates(40, 12), 40);
  ViewTreeSnapshot<IntRing> held = e.tree().Snapshot();
  const uint64_t pinned = held.epoch();
  const RowList want = SnapRows(held);

  std::atomic<bool> read{false}, same{false}, saw_wait{false}, wrote{false};
  std::thread reader([&, held = std::move(held)]() mutable {
    std::optional<ViewTreeSnapshot<IntRing>> mine(std::move(held));
    same.store(SnapRows(*mine) == want && mine->epoch() == pinned);
    read.store(true, std::memory_order_release);
    while (!wrote.load()) {
      if (obs::DumpRecorderText(obs::kRingEvents).find("snapshot-wait") !=
          std::string::npos) {
        saw_wait.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    mine.reset();  // the maintainer's wait ends here
  });
  while (!read.load(std::memory_order_acquire)) std::this_thread::yield();
  for (uint64_t seed = 0; seed < 4; ++seed) {  // 4 more publishes
    ApplyBatches(e, DrawUpdates(8, 30 + seed), 8);
  }
  wrote.store(true);
  reader.join();

  EXPECT_TRUE(saw_wait.load()) << "the writes never waited for the reader";
  EXPECT_TRUE(same.load()) << "the moved snapshot changed";
  EXPECT_EQ(e.tree().published_epoch(), pinned + 4);
  EXPECT_EQ(SnapEnumMap(e), EnumMap(e));
  obs::SetEnabled(was_enabled);
}

TEST(ServingTest, ConcurrentReadersUnderParallelMaintainer) {
  ViewTreeEngine<IntRing> e = MakeEngine();
  e.Configure(SnapshotOpts(4, /*threads=*/2));
  ApplyBatches(e, DrawUpdates(100, 10), 25);
  ViewTreeEngine<IntRing> shadow = MakeEngine();
  shadow.Configure(SnapshotOpts(4, /*threads=*/2));
  ApplyBatches(shadow, DrawUpdates(100, 10), 25);

  const ViewTree<IntRing>& tree = e.tree();
  std::atomic<bool> stop{false};
  std::atomic<bool> fail{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ViewTreeSnapshot<IntRing> snap = tree.Snapshot();
        if (snap.epoch() < last) {
          fail.store(true);
          return;
        }
        last = snap.epoch();
        SnapRows(snap);  // full constant-delay enumeration under writes
      }
    });
  }

  auto updates = DrawUpdates(2000, 11);
  ApplyBatches(e, updates, 10);
  ApplyBatches(shadow, updates, 10);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(fail.load()) << "a reader observed a non-monotone epoch";
  EXPECT_EQ(EnumMap(e), EnumMap(shadow));
  EXPECT_EQ(DumpBytes(e), DumpBytes(shadow));
}

}  // namespace
}  // namespace incr
