// Grouped indexes over dense entry ids (data/grouped_index.h), on both
// storage backends: a relation carrying two indexes churns through random
// inserts, increments, erases, batches (their per-index replays run on a
// pool) and Clear, and after every step each group's members, read by id
// through the relation, must equal
//   * a filter of the relation's contents (which tuples), and
//   * a reference model of the member order: append on insert,
//     swap-remove inside the group on erase. Limited ENUMERATE and the
//     canonical dumps rely on this order;
// and each member record's rest columns must equal its tuple's.
// Plus a MemoryBytes golden for the heap index: 20 bytes per entry (an
// 8-byte loc and a 12-byte member record) plus per-group overhead.
#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "incr/data/grouped_index.h"
#include "incr/data/page_store.h"
#include "incr/data/relation.h"
#include "incr/ring/int_ring.h"
#include "incr/util/rng.h"
#include "incr/util/thread_pool.h"

namespace incr {
namespace {

/// The reference model of one index: member lists in member order.
struct ModelIndex {
  SmallVector<uint32_t, 4> cols;
  std::map<Tuple, std::vector<Tuple>> groups;

  Tuple KeyOf(const Tuple& t) const { return ProjectTuple(t, cols); }
  void Insert(const Tuple& t) { groups[KeyOf(t)].push_back(t); }
  void Erase(const Tuple& t) {
    auto it = groups.find(KeyOf(t));
    ASSERT_NE(it, groups.end());
    std::vector<Tuple>& g = it->second;
    size_t i = 0;
    while (g[i] != t) ++i;
    g[i] = g.back();
    g.pop_back();
    if (g.empty()) groups.erase(it);
  }
};

class IndexChurnTest
    : public ::testing::TestWithParam<std::tuple<bool, uint64_t>> {};

TEST_P(IndexChurnTest, GroupsMatchFilterAndReferenceOrder) {
  const auto [paged, seed] = GetParam();
  StorageContext ctx;
  if (paged) {
    StorageOptions so;
    so.backend = StorageBackend::kPaged;
    so.spill_dir =
        ::testing::TempDir() + "index_churn_" + std::to_string(seed);
    so.page_bytes = StorageOptions::kMinPageBytes;
    so.buffer_pool_bytes =
        StorageOptions::kMinPageBytes * StorageOptions::kMinFrames;
    auto c = MakeStorageContext(so);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ctx = *std::move(c);
  }
  const Schema schema{0, 1, 2};
  Relation<IntRing> rel(schema, ctx);
  ASSERT_EQ(rel.paged(), paged);
  std::vector<ModelIndex> model(2);
  for (const Schema& key : {Schema{0}, Schema{2, 1}}) {
    model[rel.AddIndex(key)].cols = ProjectionPositions(schema, key);
  }
  std::map<Tuple, int64_t> contents;
  ThreadPool pool(2);
  Rng rng(seed);

  // One delta through the model: a fresh tuple is appended to its groups,
  // a payload reaching zero swap-removes it.
  auto model_apply = [&](const Tuple& t, int64_t d) {
    const int64_t before = contents[t];
    const int64_t after = before + d;
    if (before == 0 && after != 0) {
      for (ModelIndex& m : model) m.Insert(t);
    } else if (before != 0 && after == 0) {
      for (ModelIndex& m : model) m.Erase(t);
    }
    if (after == 0) {
      contents.erase(t);
    } else {
      contents[t] = after;
    }
  };
  auto draw = [&] {
    Tuple t{rng.UniformInt(0, 5), rng.UniformInt(0, 3), rng.UniformInt(0, 6)};
    const auto it = contents.find(t);
    const int64_t d = it != contents.end() && rng.Chance(0.45)
                          ? -it->second
                          : 1 + rng.UniformInt(0, 2);
    return std::make_pair(t, d);
  };

  std::vector<uint32_t> ids;
  Tuple scratch;
  for (int step = 0; step < 300; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.01) {
      rel.Clear();
      contents.clear();
      for (ModelIndex& m : model) m.groups.clear();
    } else if (roll < 0.2) {
      std::vector<Relation<IntRing>::Entry> batch;
      const int n = static_cast<int>(rng.UniformInt(1, 16));
      for (int i = 0; i < n; ++i) {
        auto [t, d] = draw();
        batch.push_back({t, d});
        model_apply(t, d);
      }
      rel.ApplyBatch(batch, &pool);
    } else {
      auto [t, d] = draw();
      rel.Apply(t, d);
      model_apply(t, d);
    }

    ASSERT_EQ(rel.size(), contents.size()) << "step " << step;
    for (size_t k = 0; k < model.size(); ++k) {
      const GroupedIndex& idx = rel.index(k);
      ASSERT_EQ(idx.NumEntries(), contents.size()) << "step " << step;
      ASSERT_EQ(idx.NumGroups(), model[k].groups.size()) << "step " << step;
      for (const auto& [key, members] : model[k].groups) {
        std::vector<Tuple> got;
        const GroupView group = idx.Group(key, &ids);
        for (size_t i = 0; i < group.size(); ++i) {
          got.push_back(rel.KeyAt(group[i], &scratch));
          ASSERT_EQ(rel.ValueAt(group[i]), contents.at(got.back()));
          // The record's rest columns are the member tuple's.
          for (size_t j = 0; j < idx.rest_positions().size(); ++j) {
            ASSERT_EQ(group.Rest(i, j), got.back()[idx.rest_positions()[j]])
                << "index " << k << " step " << step;
          }
        }
        // Which tuples: the filter oracle over the contents.
        std::vector<Tuple> filter;
        for (const auto& [t, v] : contents) {
          if (model[k].KeyOf(t) == key) filter.push_back(t);
        }
        std::vector<Tuple> sorted = got;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Tuple& a, const Tuple& b) {
                    return std::lexicographical_compare(a.begin(), a.end(),
                                                        b.begin(), b.end());
                  });
        ASSERT_EQ(sorted, filter) << "index " << k << " step " << step;
        // Their order: the reference model's.
        ASSERT_EQ(got, members) << "index " << k << " step " << step;
        ASSERT_EQ(idx.GroupSize(key), members.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IndexChurnTest,
    ::testing::Combine(::testing::Bool(), ::testing::Range<uint64_t>(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, uint64_t>>& info) {
      return std::string(std::get<0>(info.param) ? "paged" : "heap") + "_" +
             std::to_string(std::get<1>(info.param));
    });

/// Heap index bytes for `n` entries spread over 64 groups, inserted through
/// a relation.
size_t IndexBytes(int64_t n) {
  Relation<IntRing> r(Schema{0, 1});
  r.AddIndex(Schema{0});
  for (int64_t i = 0; i < n; ++i) r.Apply(Tuple{i % 64, i}, 1);
  return r.index(0).MemoryBytes();
}

TEST(GroupedIndexMemoryTest, TwentyBytesPerEntryPlusGroupOverhead) {
  // Power-of-two member counts at both sizes, so the golden is exact: per
  // entry an 8-byte loc and a 12-byte member record, its 4-byte id and
  // its one 8-byte rest column (20 * n), per group one group-map record,
  // one slab header and the slab's member count (a fixed overhead
  // independent of n; 64 groups here).
  const size_t small = IndexBytes(4096);
  const size_t large = IndexBytes(size_t{1} << 18);
  const size_t overhead = small - 20 * 4096;
  EXPECT_EQ(large - 20 * (size_t{1} << 18), overhead);
  EXPECT_LE(overhead, 64 * 256u);  // at most 256 bytes per group
  EXPECT_EQ(small, 89728u);
  EXPECT_EQ(large, 5250688u);
}

}  // namespace
}  // namespace incr
