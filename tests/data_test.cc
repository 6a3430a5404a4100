// Tests for schema ops, dictionary, grouped index, relation, database
// (DESIGN.md invariants 2-3).
#include <map>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "incr/data/database.h"
#include "incr/data/dense_map.h"
#include "incr/data/grouped_index.h"
#include "incr/data/relation.h"
#include "incr/data/schema.h"
#include "incr/data/value.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"

namespace incr {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  Value a = dict.Intern("alpha");
  Value b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  ASSERT_NE(dict.Lookup(a), nullptr);
  EXPECT_EQ(*dict.Lookup(a), "alpha");
  EXPECT_EQ(dict.Lookup(999), nullptr);
}

TEST(SchemaTest, RegistryRoundTrip) {
  VarRegistry vars;
  Var a = vars.GetOrCreate("A");
  Var b = vars.GetOrCreate("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(vars.GetOrCreate("A"), a);
  EXPECT_EQ(vars.Name(a), "A");
  EXPECT_TRUE(vars.Get("B").has_value());
  EXPECT_FALSE(vars.Get("C").has_value());
}

TEST(SchemaTest, SetOperations) {
  Schema ab{0, 1};
  Schema bc{1, 2};
  EXPECT_TRUE(SchemaContains(ab, 1));
  EXPECT_FALSE(SchemaContains(ab, 2));
  EXPECT_TRUE(SchemaSubset(Schema{1}, ab));
  EXPECT_FALSE(SchemaSubset(bc, ab));
  EXPECT_EQ(SchemaIntersect(ab, bc), (Schema{1}));
  EXPECT_EQ(SchemaUnion(ab, bc), (Schema{0, 1, 2}));
  EXPECT_EQ(SchemaMinus(ab, bc), (Schema{0}));
}

TEST(SchemaTest, ProjectionPositions) {
  Schema from{10, 20, 30};
  auto pos = ProjectionPositions(from, Schema{30, 10});
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 2u);
  EXPECT_EQ(pos[1], 0u);
  Tuple t{100, 200, 300};
  EXPECT_EQ(ProjectTuple(t, pos), (Tuple{300, 100}));
}

/// A GroupedIndex over its own DenseMap owner: the owner's inserts and
/// swap-removes drive the index exactly as Relation does.
struct IndexedSet {
  explicit IndexedSet(const Schema& key) : idx(Schema{0, 1}, key) {}

  void Insert(const Tuple& t) {
    const auto [slot, inserted] = map.FindOrInsert(t, 1);
    ASSERT_TRUE(inserted);
    idx.Insert(t, map.EntryOf(slot));
  }
  bool Erase(const Tuple& t) {
    const size_t slot = map.FindSlot(t);
    if (slot == kNoSlot) return false;
    const uint32_t id = map.EntryOf(slot);
    idx.Erase(t, id, map.EraseSlot(slot));
    return true;
  }
  /// Members of the group of `key`, dereferenced through the owner.
  std::vector<Tuple> Group(const Tuple& key) const {
    std::vector<uint32_t> scratch;
    std::vector<Tuple> out;
    for (uint32_t id : idx.Group(key, &scratch)) out.push_back(map.KeyAt(id));
    return out;
  }

  DenseMap<Tuple, char, TupleHash, TupleEq> map;
  GroupedIndex idx;
};

TEST(GroupedIndexTest, InsertEraseGroups) {
  IndexedSet s(Schema{0});  // (A, B) grouped by A
  GroupedIndex& idx = s.idx;
  s.Insert(Tuple{1, 10});
  s.Insert(Tuple{1, 11});
  s.Insert(Tuple{2, 20});
  EXPECT_EQ(idx.NumGroups(), 2u);
  EXPECT_EQ(idx.GroupSize(Tuple{1}), 2u);
  EXPECT_EQ(idx.GroupSize(Tuple{2}), 1u);
  EXPECT_EQ(idx.GroupSize(Tuple{3}), 0u);

  // The owner moves (2, 20) into the erased entry's id; the index follows.
  EXPECT_TRUE(s.Erase(Tuple{1, 10}));
  EXPECT_FALSE(s.Erase(Tuple{1, 10}));
  EXPECT_EQ(idx.GroupSize(Tuple{1}), 1u);
  EXPECT_EQ(s.Group(Tuple{1}), (std::vector<Tuple>{{1, 11}}));
  EXPECT_EQ(s.Group(Tuple{2}), (std::vector<Tuple>{{2, 20}}));

  EXPECT_TRUE(s.Erase(Tuple{1, 11}));
  EXPECT_TRUE(s.Group(Tuple{1}).empty());
  EXPECT_EQ(idx.NumGroups(), 1u);
  EXPECT_EQ(idx.NumEntries(), 1u);
}

// Property: group contents equal a filter of the inserted set.
class GroupedIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupedIndexPropertyTest, MatchesFilterOracle) {
  Rng rng(GetParam());
  IndexedSet s(Schema{1});  // group by B
  const GroupedIndex& idx = s.idx;
  std::set<Tuple> oracle;
  for (int step = 0; step < 5000; ++step) {
    Tuple t{rng.UniformInt(0, 30), rng.UniformInt(0, 10)};
    if (oracle.count(t) == 0 && rng.Chance(0.6)) {
      s.Insert(t);
      oracle.insert(t);
    } else if (oracle.count(t) > 0) {
      EXPECT_TRUE(s.Erase(t));
      oracle.erase(t);
    } else {
      EXPECT_FALSE(s.Erase(t));
    }
  }
  // Check each group against the oracle filter.
  std::map<Value, std::set<Tuple>> expect;
  for (const Tuple& t : oracle) expect[t[1]].insert(t);
  EXPECT_EQ(idx.NumEntries(), oracle.size());
  EXPECT_EQ(idx.NumGroups(), expect.size());
  for (const auto& [b, members] : expect) {
    const std::vector<Tuple> g = s.Group(Tuple{b});
    ASSERT_FALSE(g.empty());
    std::set<Tuple> got(g.begin(), g.end());
    EXPECT_EQ(got, members);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedIndexPropertyTest,
                         ::testing::Values(1, 7, 42, 1234));

TEST(RelationTest, ApplyAccumulatesAndErasesZero) {
  Relation<IntRing> r(Schema{0, 1});
  // Apply returns what it did to the entry set: +1 inserted, -1 erased, 0
  // changed in place.
  EXPECT_EQ(r.Apply(Tuple{1, 2}, 3), 1);
  EXPECT_EQ(r.Payload(Tuple{1, 2}), 3);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Apply(Tuple{1, 2}, -1), 0);
  EXPECT_EQ(r.Payload(Tuple{1, 2}), 2);
  EXPECT_EQ(r.Apply(Tuple{1, 2}, -2), -1);
  EXPECT_EQ(r.Payload(Tuple{1, 2}), 0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(Tuple{1, 2}));
  // Zero delta is a no-op and does not materialize a zero tuple.
  EXPECT_EQ(r.Apply(Tuple{5, 5}, 0), 0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.Apply(Tuple{1, 2}, 4), 1);  // an erased tuple comes back
}

TEST(RelationTest, NegativePayloadsAreKept) {
  // Out-of-order deletes may transiently produce negative multiplicities
  // (paper S2); they must be represented, not dropped.
  Relation<IntRing> r(Schema{0});
  r.Apply(Tuple{1}, -2);
  EXPECT_EQ(r.Payload(Tuple{1}), -2);
  EXPECT_EQ(r.size(), 1u);
  r.Apply(Tuple{1}, 2);
  EXPECT_EQ(r.size(), 0u);
}

TEST(RelationTest, IndexesStayInSync) {
  Relation<IntRing> r(Schema{0, 1});
  size_t by_a = r.AddIndex(Schema{0});
  r.Apply(Tuple{1, 10}, 1);
  r.Apply(Tuple{1, 11}, 1);
  r.Apply(Tuple{2, 20}, 1);
  EXPECT_EQ(r.index(by_a).GroupSize(Tuple{1}), 2u);
  // Payload update without zero-crossing must not duplicate index entries.
  r.Apply(Tuple{1, 10}, 5);
  EXPECT_EQ(r.index(by_a).GroupSize(Tuple{1}), 2u);
  // Zero-crossing removes from the index.
  r.Apply(Tuple{1, 10}, -6);
  EXPECT_EQ(r.index(by_a).GroupSize(Tuple{1}), 1u);
}

TEST(RelationTest, AddIndexOnPopulatedRelation) {
  Relation<IntRing> r(Schema{0, 1});
  r.Apply(Tuple{1, 10}, 1);
  r.Apply(Tuple{2, 20}, 1);
  size_t by_b = r.AddIndex(Schema{1});
  EXPECT_EQ(r.index(by_b).GroupSize(Tuple{10}), 1u);
  EXPECT_EQ(r.index(by_b).GroupSize(Tuple{20}), 1u);
}

TEST(RelationTest, ClearEmptiesIndexes) {
  Relation<IntRing> r(Schema{0, 1});
  size_t by_a = r.AddIndex(Schema{0});
  r.Apply(Tuple{1, 10}, 1);
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.index(by_a).NumEntries(), 0u);
}

// ---------------------------------------------------------------------------
// MemoryBytes accounting goldens: the memory gauges and the snapshot
// admission logic trust these numbers, so pin the identities down — empty
// containers cost at most their minimal slot table, growth is monotone,
// and a relation's footprint is exactly its map plus its indexes.

TEST(MemoryBytesTest, EmptyContainersCostOnlyTheMinimalTable) {
  DenseMap<Tuple, int64_t, TupleHash, TupleEq> m;
  EXPECT_LT(m.MemoryBytes(), 1024u);
  GroupedIndex idx(Schema{0, 1}, Schema{0});
  EXPECT_LT(idx.MemoryBytes(), 2048u);
  Relation<IntRing> r(Schema{0, 1});
  EXPECT_LT(r.MemoryBytes(), 1024u);
  EXPECT_EQ(r.PagedBytes(), 0u);  // heap backend holds no pages
}

TEST(MemoryBytesTest, GrowthIsMonotoneUnderInserts) {
  Relation<IntRing> r(Schema{0, 1});
  size_t last = r.MemoryBytes();
  for (Value i = 0; i < 1000; ++i) {
    r.Apply(Tuple{i, i + 1}, 1);
    size_t now = r.MemoryBytes();
    ASSERT_GE(now, last) << "shrank at insert " << i;
    last = now;
  }
  EXPECT_GT(last, 1000 * sizeof(Tuple));  // at least the entries themselves
}

TEST(MemoryBytesTest, RelationFootprintIsMapPlusIndexes) {
  // Build the same index contents standalone, inserting in the relation's
  // enumeration order: byte-for-byte the same DenseMap growth history, so
  // the footprints must agree exactly.
  Relation<IntRing> r(Schema{0, 1});
  for (Value i = 0; i < 300; ++i) r.Apply(Tuple{i % 13, i}, 1);
  const size_t bare = r.MemoryBytes();
  r.AddIndex(Schema{0});
  GroupedIndex shadow(Schema{0, 1}, Schema{0});
  shadow.Reserve(r.size());
  uint32_t id = 0;
  r.ForEachEntry(
      [&](const Tuple& t, const int64_t&) { shadow.Insert(t, id++); });
  EXPECT_EQ(r.MemoryBytes(), bare + shadow.MemoryBytes());
  EXPECT_EQ(r.index(0).MemoryBytes(), shadow.MemoryBytes());
}

TEST(MemoryBytesTest, OneInsertBatchesGrowStorageGeometrically) {
  // ApplyBatch reserves size() + batch size before applying. That reserve
  // must grow geometrically: one-insert batches would otherwise move the
  // whole dense array on every call.
  constexpr Value kN = 2000;
  Relation<IntRing> r(Schema{0, 1});
  const Relation<IntRing>::Entry* data = nullptr;
  size_t footprint = r.MemoryBytes();
  size_t moves = 0, footprint_changes = 0;
  for (Value i = 0; i < kN; ++i) {
    const Relation<IntRing>::Entry e{Tuple{i, i + 1}, 1};
    r.ApplyBatch(std::span<const Relation<IntRing>::Entry>(&e, 1));
    if (r.begin() != data) {
      ++moves;
      data = r.begin();
    }
    if (r.MemoryBytes() != footprint) {
      ++footprint_changes;
      footprint = r.MemoryBytes();
    }
  }
  ASSERT_EQ(r.size(), static_cast<size_t>(kN));
  const size_t log2n = 11;  // ceil(log2(2000))
  EXPECT_LE(moves, 2 * log2n);
  EXPECT_LE(footprint_changes, 2 * log2n);
}

TEST(DatabaseTest, NamedRelations) {
  Database<IntRing> db;
  RelId rid = db.AddRelation("R", Schema{0, 1});
  RelId sid = db.AddRelation("S", Schema{1, 2});
  EXPECT_EQ(db.NumRelations(), 2u);
  EXPECT_EQ(db.Id("R"), rid);
  EXPECT_EQ(db.Name(sid), "S");
  db.relation(rid).Apply(Tuple{1, 2}, 1);
  db.relation(sid).Apply(Tuple{2, 3}, 1);
  EXPECT_EQ(db.TotalSize(), 2u);
  EXPECT_NE(db.Find("R"), nullptr);
  EXPECT_EQ(db.Find("X"), nullptr);
}

}  // namespace
}  // namespace incr
