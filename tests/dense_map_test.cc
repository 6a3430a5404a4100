// DenseMap unit + property tests: oracle comparison against
// std::unordered_map under random operation streams (DESIGN.md invariant 2),
// over both record stores (heap vector and paged records).
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/data/dense_map.h"
#include "incr/data/page_store.h"
#include "incr/data/paged_backend.h"
#include "incr/data/tuple.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

/// The value of `key`, or nullopt.
template <typename Map, typename Key>
std::optional<int64_t> Lookup(const Map& m, const Key& key) {
  const size_t slot = m.FindSlot(key);
  if (slot == kNoSlot) return std::nullopt;
  return m.ValueAt(m.EntryOf(slot));
}

TEST(DenseMapTest, InsertFindErase) {
  DenseMap<int64_t, int64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.FindOrInsert(1, 10).inserted);
  EXPECT_TRUE(m.FindOrInsert(2, 20).inserted);
  EXPECT_EQ(Lookup(m, 1), 10);
  EXPECT_EQ(Lookup(m, 3), std::nullopt);
  EXPECT_TRUE(m.Erase(1));
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(Lookup(m, 1), std::nullopt);
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMapTest, FindOrInsertReturnsExisting) {
  DenseMap<int64_t, int64_t> m;
  const auto first = m.FindOrInsert(5, 50);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(m.EntryOf(first.slot), 0u);
  const auto again = m.FindOrInsert(5, 999);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.slot, first.slot);
  EXPECT_EQ(m.ValueAt(m.EntryOf(again.slot)), 50);
  m.SetAt(again.slot, 51);
  EXPECT_EQ(Lookup(m, 5), 51);
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMapTest, FindOrInsertConsumesTheValueOnlyOnAMiss) {
  DenseMap<int64_t, std::unique_ptr<int>> m;
  EXPECT_TRUE(m.FindOrInsert(1, std::make_unique<int>(7)).inserted);
  auto spare = std::make_unique<int>(8);
  const auto hit = m.FindOrInsert(1, std::move(spare));
  EXPECT_FALSE(hit.inserted);
  EXPECT_NE(spare, nullptr);  // not moved from
  EXPECT_EQ(*m.ValueAt(m.EntryOf(hit.slot)), 7);
}

TEST(DenseMapTest, DenseIterationSeesAllEntries) {
  DenseMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 100; ++i) m.FindOrInsert(i, i * 2);
  int64_t sum = 0;
  size_t count = 0;
  for (const auto& e : m) {
    sum += e.value;
    ++count;
  }
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(sum, 99 * 100);  // 2 * (0+...+99)
}

TEST(DenseMapTest, GrowsThroughRehash) {
  DenseMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 10000; ++i) {
    // The returned slot is the new record's, also when the insert rebuilt
    // the table.
    const auto [slot, inserted] = m.FindOrInsert(i, i);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(m.EntryOf(slot), m.size() - 1) << i;
    ASSERT_EQ(m.KeyAt(m.EntryOf(slot)), i);
  }
  EXPECT_EQ(m.size(), 10000u);
  EXPECT_GT(m.rehashes(), 0u);
  for (int64_t i = 0; i < 10000; ++i) ASSERT_EQ(Lookup(m, i), i) << i;
}

TEST(DenseMapTest, TombstonePurgeKeepsLookupsCorrect) {
  DenseMap<int64_t, int64_t> m;
  // Repeated insert/erase at steady size forces tombstone-purging rebuilds.
  for (int64_t round = 0; round < 50; ++round) {
    for (int64_t i = 0; i < 100; ++i) m.FindOrInsert(round * 1000 + i, i);
    for (int64_t i = 0; i < 100; ++i) EXPECT_TRUE(m.Erase(round * 1000 + i));
  }
  EXPECT_TRUE(m.empty());
}

TEST(DenseMapTest, SwapRemovePatchesMovedSlot) {
  DenseMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 10; ++i) m.FindOrInsert(i, i);
  // Erase an element in the middle of the dense array; the last element is
  // moved into its place and must still be findable.
  const size_t slot = m.FindSlot(0);
  EXPECT_EQ(m.EraseSlot(slot), 9u);  // entry 9 moved into entry 0
  EXPECT_EQ(m.KeyAt(0), 9);
  for (int64_t i = 1; i < 10; ++i) ASSERT_EQ(Lookup(m, i), i) << i;
}

TEST(DenseMapTest, TupleKeys) {
  DenseMap<Tuple, int64_t, TupleHash, TupleEq> m;
  m.FindOrInsert(Tuple{1, 2}, 12);
  m.FindOrInsert(Tuple{2, 1}, 21);
  EXPECT_EQ(Lookup(m, Tuple{1, 2}), 12);
  EXPECT_EQ(Lookup(m, Tuple{2, 1}), 21);
  EXPECT_EQ(Lookup(m, Tuple{1, 1}), std::nullopt);
}

TEST(DenseMapTest, ReserveDoesNotLoseEntries) {
  DenseMap<int64_t, int64_t> m;
  for (int64_t i = 0; i < 10; ++i) m.FindOrInsert(i, i);
  m.Reserve(100000);
  for (int64_t i = 0; i < 10; ++i) ASSERT_EQ(Lookup(m, i), i);
}

// ---------------------------------------------------------------------------
// Adversarial probing: hash functors chosen to break the group-probing
// slot table — every key in one probe chain, false-positive control
// matches, tombstone-saturated chains. Each suite runs two arms: the heap
// store, and PagedRecords on a 4-frame pool of 512-byte pages, so the paged
// arm also evicts and reloads records constantly. Both write through
// FindOrInsert, so its one walk (match, else the first tombstone or empty
// slot on the chain) is what these chains exercise.

// Every key lands in group 0 with H2 fragment 0: inserts form one long
// probe chain across consecutive groups, and every lookup walks it.
struct CollidingHash {
  size_t operator()(const Tuple&) const { return 0; }
};

// Two hash values that share H1 (group index) but differ in H2 only in the
// lowest bit: control-byte matches hit the wrong key's slots constantly,
// and the key compare (behind the paged store's cached-hash screen) must
// reject them.
struct TwoFragmentHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(t[0]) & 1;
  }
};

template <typename Hash>
using HeapMap = DenseMap<Tuple, int64_t, Hash, TupleEq>;
template <typename Hash>
using PagedRecordMap =
    DenseMap<Tuple, int64_t, Hash, TupleEq, PagedRecords<int64_t>>;

std::shared_ptr<PageStore> TinyPool() {
  StorageOptions so;
  so.backend = StorageBackend::kPaged;
  so.spill_dir = ::testing::TempDir() + "dense_map_paged";
  so.page_bytes = StorageOptions::kMinPageBytes;
  so.buffer_pool_bytes =
      StorageOptions::kMinPageBytes * StorageOptions::kMinFrames;
  auto ctx = MakeStorageContext(so);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
  return ctx->store;
}

/// Runs `body(map)` on a fresh empty map for each arm: heap records, then
/// paged records.
template <typename Hash = TupleHash, typename Body>
void OnEachArm(Body&& body) {
  {
    SCOPED_TRACE("heap records");
    HeapMap<Hash> m;
    body(m);
  }
  {
    SCOPED_TRACE("paged records");
    PagedRecordMap<Hash> m(PagedRecords<int64_t>(TinyPool(), /*arity=*/1));
    body(m);
  }
}

Tuple K(int64_t k) { return Tuple{k}; }

template <typename Map>
std::optional<int64_t> Get(const Map& m, int64_t k) {
  return Lookup(m, K(k));
}

template <typename Map>
void Put(Map& m, int64_t k, int64_t v) {
  const auto [slot, inserted] = m.FindOrInsert(K(k), v);
  if (!inserted) m.SetAt(slot, v);
}

template <typename Map>
std::vector<std::pair<Tuple, int64_t>> Dense(const Map& m) {
  std::vector<std::pair<Tuple, int64_t>> out;
  m.ForEach([&](const Tuple& k, int64_t v) { out.emplace_back(k, v); });
  return out;
}

TEST(DenseMapAdversarialTest, CollidingHashChainStaysCorrect) {
  OnEachArm<CollidingHash>([](auto& m) {
    for (int64_t i = 0; i < 500; ++i) Put(m, i, i * 3);
    EXPECT_EQ(m.size(), 500u);
    for (int64_t i = 0; i < 500; ++i) ASSERT_EQ(Get(m, i), i * 3) << i;
    EXPECT_EQ(Get(m, 500), std::nullopt);  // full-chain walk to "absent"
    for (int64_t i = 0; i < 500; i += 2) ASSERT_TRUE(m.Erase(K(i)));
    // Updates walk past the tombstones to the key; they must not insert.
    for (int64_t i = 1; i < 500; i += 2) Put(m, i, -i);
    for (int64_t i = 0; i < 500; ++i) {
      if (i % 2 == 0) {
        ASSERT_EQ(Get(m, i), std::nullopt) << i;
      } else {
        ASSERT_EQ(Get(m, i), -i) << i;
      }
    }
    EXPECT_EQ(m.size(), 250u);
  });
}

TEST(DenseMapAdversarialTest, FalsePositiveControlMatchesAreRejected) {
  OnEachArm<TwoFragmentHash>([](auto& m) {
    Rng rng(77);
    std::unordered_map<int64_t, int64_t> oracle;
    for (int step = 0; step < 5000; ++step) {
      int64_t key = rng.UniformInt(0, 99);
      if (rng.Chance(0.6)) {
        int64_t val = rng.UniformInt(-50, 50);
        Put(m, key, val);
        oracle[key] = val;
      } else {
        ASSERT_EQ(m.Erase(K(key)), oracle.erase(key) > 0);
      }
      ASSERT_EQ(m.size(), oracle.size());
    }
    for (const auto& [key, val] : oracle) ASSERT_EQ(Get(m, key), val) << key;
  });
}

TEST(DenseMapAdversarialTest, TombstoneChurnTriggersPurgeNotUnboundedGrowth) {
  // Steady-state size, but each round's keys live in fresh home groups, so
  // the previous round's tombstones are never on a new insert's probe path
  // and cannot be reused in place — they pile up until load crosses 7/8
  // and a same-size purge rebuild collects them. The table must keep
  // answering correctly and must not grow without bound.
  OnEachArm([](auto& m) {
    for (int64_t i = 0; i < 100; ++i) Put(m, i, i);
    const size_t baseline = m.MemoryBytes();
    const size_t rehashes_before = m.rehashes();
    for (int64_t round = 1; round <= 100; ++round) {
      for (int64_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(m.Erase(K((round - 1) * 100000 + i)));
        Put(m, round * 100000 + i, i);
      }
      ASSERT_EQ(m.size(), 100u);
    }
    EXPECT_GT(m.rehashes(), rehashes_before);  // churn forced purges
    EXPECT_LE(m.MemoryBytes(), baseline * 4);  // purged, not grown 100x
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_EQ(Get(m, 100 * 100000 + i), i) << i;
    }
  });
}

TEST(DenseMapAdversarialTest, TombstonesOnTheProbeChainAreReusedInPlace) {
  // The mirror image: with every key in ONE probe chain, an insert always
  // walks past the freshest tombstone and must reuse it — 1:1 erase/insert
  // churn then needs no rebuild at all, and the table stays at its size.
  OnEachArm<CollidingHash>([](auto& m) {
    for (int64_t i = 0; i < 64; ++i) Put(m, i, i);
    const size_t baseline = m.MemoryBytes();
    const size_t rehashes_before = m.rehashes();
    for (int64_t round = 1; round <= 200; ++round) {
      for (int64_t i = 0; i < 64; ++i) {
        ASSERT_TRUE(m.Erase(K((round - 1) * 64 + i)));
        Put(m, round * 64 + i, i);
      }
      ASSERT_EQ(m.size(), 64u);
    }
    EXPECT_EQ(m.rehashes(), rehashes_before);  // every tombstone reused
    EXPECT_EQ(m.MemoryBytes(), baseline);
    for (int64_t i = 0; i < 64; ++i) ASSERT_EQ(Get(m, 200 * 64 + i), i) << i;
  });
}

TEST(DenseMapAdversarialTest, EraseDuringHighLoadKeepsChainsReachable) {
  // Drive the table to its load ceiling, then erase from the middle of
  // long chains while inserting replacements — tombstones must keep probe
  // chains alive for keys displaced past them.
  OnEachArm<CollidingHash>([](auto& m) {
    m.Reserve(256);
    const size_t cap_before = m.MemoryBytes();
    for (int64_t i = 0; i < 200; ++i) Put(m, i, i);
    EXPECT_EQ(m.MemoryBytes(), cap_before);  // within the reservation
    Rng rng(78);
    std::unordered_map<int64_t, int64_t> oracle;
    for (int64_t i = 0; i < 200; ++i) oracle[i] = i;
    for (int step = 0; step < 2000; ++step) {
      // Erase one resident key, insert one fresh key: stays at the ceiling.
      int64_t victim = rng.UniformInt(0, 10000);
      auto it = oracle.find(victim);
      if (it != oracle.end()) {
        ASSERT_TRUE(m.Erase(K(victim)));
        oracle.erase(it);
        int64_t fresh = 10001 + step;
        Put(m, fresh, -fresh);
        oracle[fresh] = -fresh;
      } else {
        ASSERT_EQ(Get(m, victim), std::nullopt) << victim;
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
    for (const auto& [key, val] : oracle) ASSERT_EQ(Get(m, key), val) << key;
  });
}

TEST(DenseMapAdversarialTest, DeepCopyIsIndependentAndEqual) {
  OnEachArm([](auto& m) {
    using Map = std::remove_reference_t<decltype(m)>;
    for (int64_t i = 0; i < 300; ++i) Put(m, i, i);
    for (int64_t i = 0; i < 100; ++i) m.Erase(K(i * 3));
    Map copy = m;
    // Same contents, same dense enumeration order.
    ASSERT_EQ(Dense(copy), Dense(m));
    // The copy's slot table (and, paged, its pages) must be
    // self-consistent, not aliased: mutate the original heavily and
    // re-check the copy.
    const auto snapshot = Dense(copy);
    for (int64_t i = 0; i < 300; ++i) m.Erase(K(i));
    ASSERT_TRUE(m.empty());
    ASSERT_EQ(Dense(copy), snapshot);
    for (const auto& [key, val] : snapshot) ASSERT_EQ(Get(copy, key[0]), val);
    // And the copy keeps working as a live map (erase through its own
    // slots).
    size_t live = copy.size();
    for (const auto& [key, val] : snapshot) {
      ASSERT_TRUE(copy.Erase(key));
      ASSERT_EQ(copy.size(), --live);
    }
    EXPECT_TRUE(copy.empty());
  });
}

TEST(DenseMapAdversarialTest, GoldenEnumerationOrderIsDenseArrayOrder) {
  // Snapshot serialization depends on enumeration being exactly the dense
  // array: insertion order with swap-remove holes. Golden sequence check —
  // identical for every arm.
  OnEachArm([](auto& m) {
    auto order = [&] {
      std::vector<int64_t> keys;
      for (const auto& [key, val] : Dense(m)) keys.push_back(key[0]);
      return keys;
    };
    for (int64_t i = 0; i < 10; ++i) Put(m, i, i);
    EXPECT_EQ(order(), (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    m.Erase(K(3));  // last entry (9) moves into slot 3
    EXPECT_EQ(order(), (std::vector<int64_t>{0, 1, 2, 9, 4, 5, 6, 7, 8}));
    m.Erase(K(0));  // last entry (8) moves into slot 0
    EXPECT_EQ(order(), (std::vector<int64_t>{8, 1, 2, 9, 4, 5, 6, 7}));
    Put(m, 10, 10);  // appends
    EXPECT_EQ(order(), (std::vector<int64_t>{8, 1, 2, 9, 4, 5, 6, 7, 10}));
    m.Erase(K(7));  // last entry (10) moves into its place
    EXPECT_EQ(order(), (std::vector<int64_t>{8, 1, 2, 9, 4, 5, 6, 10}));
    // Rehashing reorders slots, never the dense array.
    m.Reserve(100000);
    EXPECT_EQ(order(), (std::vector<int64_t>{8, 1, 2, 9, 4, 5, 6, 10}));
  });
}

// Property test: random streams of insert/update/erase against an oracle,
// on every arm.
class DenseMapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseMapPropertyTest, MatchesUnorderedMapOracle) {
  OnEachArm([](auto& m) {
    Rng rng(GetParam());
    std::unordered_map<int64_t, int64_t> oracle;
    const int64_t kKeySpace = 200;  // small key space => collisions/reuse
    for (int step = 0; step < 20000; ++step) {
      int64_t key = rng.UniformInt(0, kKeySpace - 1);
      switch (rng.Uniform(3)) {
        case 0: {  // upsert
          int64_t val = rng.UniformInt(-100, 100);
          Put(m, key, val);
          oracle[key] = val;
          break;
        }
        case 1:  // erase
          ASSERT_EQ(m.Erase(K(key)), oracle.erase(key) > 0);
          break;
        case 2: {  // lookup
          auto it = oracle.find(key);
          ASSERT_EQ(Get(m, key), it == oracle.end()
                                     ? std::nullopt
                                     : std::optional<int64_t>(it->second));
          break;
        }
      }
      ASSERT_EQ(m.size(), oracle.size());
    }
    // Final full-content check via dense iteration.
    size_t seen = 0;
    for (const auto& [key, val] : Dense(m)) {
      auto it = oracle.find(key[0]);
      ASSERT_NE(it, oracle.end());
      ASSERT_EQ(val, it->second);
      ++seen;
    }
    ASSERT_EQ(seen, oracle.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseMapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

}  // namespace
}  // namespace incr
