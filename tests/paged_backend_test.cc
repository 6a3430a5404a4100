// Paged-backend equivalence tests (DESIGN.md "Storage backends"): the
// buffer-pool Relation/GroupedIndex must be observably identical to the
// heap containers — same sizes, same payloads, same dense entry ORDER and
// same group member ORDER (both run one DenseMap core and one swap-remove
// body) — while running over a pool small enough that state is
// continually evicted and reloaded, also with index replays running on
// several threads over the shared pool. A view-tree level pass checks the
// end product: DumpState bytes identical across backends.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "incr/core/view_tree.h"
#include "incr/data/grouped_index.h"
#include "incr/data/page_store.h"
#include "incr/data/relation.h"
#include "incr/ring/int_ring.h"
#include "incr/store/serde.h"
#include "incr/util/rng.h"
#include "incr/util/thread_pool.h"

namespace incr {
namespace {

enum : Var { A = 0, B = 1, X = 4, Y = 5, Z = 6 };

StorageOptions TinyPagedOpts(const std::string& name) {
  StorageOptions so;
  so.backend = StorageBackend::kPaged;
  so.spill_dir = ::testing::TempDir() + "paged_backend_" + name;
  so.page_bytes = StorageOptions::kMinPageBytes;
  so.buffer_pool_bytes =
      StorageOptions::kMinPageBytes * StorageOptions::kMinFrames;
  return so;
}

StorageContext MustContext(const StorageOptions& so) {
  auto ctx = MakeStorageContext(so);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
  return *std::move(ctx);
}

std::map<Tuple, int64_t> Contents(const Relation<IntRing>& r) {
  std::map<Tuple, int64_t> out;
  r.ForEachEntry([&](const Tuple& t, const int64_t& v) { out[t] = v; });
  return out;
}

/// Entries in dense (enumeration) order — what DumpState walks.
std::vector<std::pair<Tuple, int64_t>> Sequence(const Relation<IntRing>& r) {
  std::vector<std::pair<Tuple, int64_t>> out;
  r.ForEachEntry(
      [&](const Tuple& t, const int64_t& v) { out.emplace_back(t, v); });
  return out;
}

/// The member tuples of index `i`'s group of `key`, in member order.
std::vector<Tuple> Members(const Relation<IntRing>& r, size_t i,
                           const Tuple& key) {
  std::vector<uint32_t> ids;
  std::vector<Tuple> out;
  Tuple scratch;
  for (uint32_t id : r.index(i).Group(key, &ids)) {
    out.push_back(r.KeyAt(id, &scratch));
  }
  return out;
}

/// Same entry sequence, and in every index the same groups with members
/// in the same order (not just as sets).
void ExpectSameState(const Relation<IntRing>& heap,
                     const Relation<IntRing>& paged) {
  EXPECT_EQ(Sequence(paged), Sequence(heap));
  ASSERT_EQ(paged.num_indexes(), heap.num_indexes());
  for (size_t i = 0; i < heap.num_indexes(); ++i) {
    const GroupedIndex& h = heap.index(i);
    const GroupedIndex& p = paged.index(i);
    EXPECT_EQ(p.NumEntries(), h.NumEntries()) << "index " << i;
    ASSERT_EQ(p.NumGroups(), h.NumGroups()) << "index " << i;
    for (size_t g = 0; g < h.NumGroups(); ++g) {
      const Tuple& key = h.GroupKey(g);
      const std::vector<Tuple> members = Members(heap, i, key);
      ASSERT_FALSE(members.empty()) << "index " << i;
      EXPECT_EQ(Members(paged, i, key), members) << "index " << i;
    }
  }
}

TEST(PagedBackendTest, RelationMatchesHeapUnderEvictionPressure) {
  StorageContext ctx = MustContext(TinyPagedOpts("relation"));
  ASSERT_TRUE(ctx.paged());
  Schema schema{A, B};
  Relation<IntRing> heap(schema);
  Relation<IntRing> paged(schema, ctx);
  ASSERT_TRUE(paged.paged());
  size_t hidx = heap.AddIndex(Schema{A});
  size_t pidx = paged.AddIndex(Schema{A});

  // Enough distinct tuples that the paged state dwarfs the 4-frame pool;
  // mixed inserts, increments, and deletes.
  Rng rng(0xBADDCAFE);
  for (size_t i = 0; i < 4000; ++i) {
    Tuple t{static_cast<Value>(rng.Uniform(64)),
            static_cast<Value>(rng.Uniform(64))};
    int64_t d = rng.Chance(0.3) ? -heap.Payload(t)
                                : static_cast<int64_t>(1 + rng.Uniform(3));
    if (d == 0) continue;
    heap.Apply(t, d);
    paged.Apply(t, d);
    if (i % 512 == 0) {
      ASSERT_EQ(paged.size(), heap.size()) << "op " << i;
    }
  }

  // Entries and group members must match in ORDER, not just as sets: the
  // dense order is what DumpState and enumeration walk.
  ExpectSameState(heap, paged);
  std::vector<uint32_t> scratch;
  for (Value a = 0; a < 64; ++a) {
    Tuple key{a};
    if (heap.index(hidx).Group(key, &scratch).empty()) {
      EXPECT_TRUE(paged.index(pidx).Group(key, &scratch).empty()) << a;
    }
  }

  // The pool really was under pressure — this test is pointless if all
  // state stayed resident.
  PageStoreStats stats = ctx.store->Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.writebacks, 0u);
  EXPECT_GT(paged.PagedBytes(),
            StorageOptions::kMinPageBytes * StorageOptions::kMinFrames);
}

TEST(PagedBackendTest, ParallelIndexReplayMatchesHeap) {
  // ApplyBatch replays each grouped index's op stream on its own pool
  // thread, and every replay pins pages of the one shared PageStore. Mixed
  // batches (fresh inserts, increments, deletes to zero, repeated tuples)
  // over three indexes on a 4-frame pool must leave exactly the heap
  // relation's entry sequence and group-member order.
  StorageContext ctx = MustContext(TinyPagedOpts("parallel"));
  Schema schema{A, B, X};
  Relation<IntRing> heap(schema);
  Relation<IntRing> paged(schema, ctx);
  for (const Schema& key : {Schema{A}, Schema{B}, Schema{A, X}}) {
    heap.AddIndex(key);
    paged.AddIndex(key);
  }
  ThreadPool pool(2);
  using Entry = Relation<IntRing>::Entry;
  Rng rng(0x7A11E1);
  for (int round = 0; round < 12; ++round) {
    std::vector<Entry> batch;
    for (int i = 0; i < 300; ++i) {
      Tuple t{static_cast<Value>(rng.Uniform(24)),
              static_cast<Value>(rng.Uniform(24)),
              static_cast<Value>(rng.Uniform(4))};
      const int64_t payload = heap.Payload(t);
      const int64_t d = payload != 0 && rng.Chance(0.4)
                            ? -payload
                            : static_cast<int64_t>(1 + rng.Uniform(3));
      batch.push_back(Entry{t, d});
    }
    heap.ApplyBatch(batch, &pool);
    paged.ApplyBatch(batch, &pool);
    ASSERT_EQ(paged.size(), heap.size()) << "round " << round;
    ExpectSameState(heap, paged);
  }
  EXPECT_GT(ctx.store->Stats().evictions, 0u);
}

TEST(PagedBackendTest, PagedRelationCopyIsIndependent) {
  StorageContext ctx = MustContext(TinyPagedOpts("copy"));
  Relation<IntRing> r(Schema{A, B}, ctx);
  r.AddIndex(Schema{A});
  for (Value i = 0; i < 200; ++i) r.Apply(Tuple{i % 10, i}, 1);

  Relation<IntRing> copy(r);
  EXPECT_EQ(Contents(copy), Contents(r));

  // Mutating the copy must not leak into the original (the clone owns its
  // own pages).
  for (Value i = 0; i < 200; i += 2) copy.Apply(Tuple{i % 10, i}, -1);
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(r.size(), 200u);
  EXPECT_EQ(r.index(0).NumEntries(), 200u);
  EXPECT_EQ(copy.index(0).NumEntries(), 100u);
}

TEST(PagedBackendTest, GroupedIndexClearReleasesPages) {
  StorageContext ctx = MustContext(TinyPagedOpts("clear"));
  GroupedIndex idx(Schema{A, B}, Schema{A}, ctx);
  for (Value i = 0; i < 500; ++i) {
    idx.Insert(Tuple{i % 7, i}, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(idx.NumEntries(), 500u);
  const uint64_t live_before = ctx.store->Stats().live_pages;
  EXPECT_GT(live_before, 0u);
  idx.Clear();
  EXPECT_EQ(idx.NumEntries(), 0u);
  EXPECT_EQ(idx.NumGroups(), 0u);
  EXPECT_LT(ctx.store->Stats().live_pages, live_before);
}

TEST(PagedBackendTest, ViewTreeDumpsIdenticalBytesAcrossBackends) {
  // Q(Y,X,Z) = R(Y,X) * S(Y,Z) — the Fig. 3 query — maintained over both
  // backends with the same update stream must serialize identically:
  // storage is invisible in DumpState.
  Query q("Q", Schema{Y, X, Z},
          {Atom{"R", Schema{Y, X}}, Atom{"S", Schema{Y, Z}}});
  auto heap = ViewTree<IntRing>::Make(q);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto paged = ViewTree<IntRing>::Make(q, TinyPagedOpts("tree"));
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_NE(paged->page_store(), nullptr);

  Rng rng(0x5EEDED);
  for (size_t i = 0; i < 1500; ++i) {
    const bool to_r = rng.Chance(0.5);
    Tuple t{static_cast<Value>(rng.Uniform(32)),
            static_cast<Value>(rng.Uniform(32))};
    int64_t d = rng.Chance(0.25) ? -1 : 1;
    heap->Update(to_r ? "R" : "S", t, d);
    paged->Update(to_r ? "R" : "S", t, d);
  }
  EXPECT_EQ(paged->Aggregate(), heap->Aggregate());

  store::ByteWriter hw, pw;
  heap->DumpState(hw);
  paged->DumpState(pw);
  EXPECT_EQ(pw.Take(), hw.Take());
  EXPECT_GT(paged->page_store()->Stats().evictions, 0u);

  // Reload the paged dump into a fresh HEAP tree and vice versa: the
  // serialized form is one canonical format, not per-backend.
  store::ByteWriter pw2;
  paged->DumpState(pw2);
  auto fresh = ViewTree<IntRing>::Make(q);
  ASSERT_TRUE(fresh.ok());
  store::ByteReader r(pw2.data());
  ASSERT_TRUE(fresh->LoadState(r).ok());
  EXPECT_EQ(fresh->Aggregate(), heap->Aggregate());
}

}  // namespace
}  // namespace incr
