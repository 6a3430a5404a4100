// ShardedRelation<R>: a Relation split into disjoint hash shards on a key
// prefix — the storage layout that lets the parallel batch path apply W-view
// deltas lock-free. Every tuple lives in exactly one shard, chosen by the
// hash of its first `key_prefix` columns (a node's group-by key), so two
// tuples with the same key prefix always share a shard: shard-parallel
// writers partitioned by the same hash never touch the same DenseMap, and a
// grouped-index lookup by key needs to consult only one shard.
//
// The default is a single shard, which behaves exactly like a plain Relation
// (routing short-circuits before hashing). The shard count is a layout
// property set by Reshard(), deliberately decoupled from the thread count:
// parallel results must not depend on how many threads exist, so callers fix
// the shard count and let threads pick up shards dynamically. The view tree
// runs its parallel batch path over kParallelShards shards.
#ifndef INCR_DATA_SHARDED_RELATION_H_
#define INCR_DATA_SHARDED_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "incr/data/relation.h"
#include "incr/data/schema.h"
#include "incr/data/tuple.h"
#include "incr/ring/ring.h"
#include "incr/util/check.h"
#include "incr/util/hash.h"

namespace incr {

/// Shard count of W storage on the parallel batch path (and the chunk count
/// of the parallel batch merge). A constant, not derived from the thread
/// count: the partition of work is the same at every thread count, so
/// results are too.
inline constexpr size_t kParallelShards = 16;

template <RingType R>
class ShardedRelation {
 public:
  using RV = typename R::Value;
  using Entry = typename Relation<R>::Entry;

  /// A relation over `schema` sharded by the hash of the first `key_prefix`
  /// columns. key_prefix == 0 degenerates to one effective shard (the empty
  /// span hashes to a constant), which is still correct. The storage
  /// context (heap or paged) is inherited by every shard, across Reshard.
  ShardedRelation(Schema schema, size_t key_prefix, size_t num_shards = 1,
                  StorageContext ctx = {})
      : schema_(std::move(schema)),
        key_prefix_(key_prefix),
        ctx_(std::move(ctx)) {
    INCR_CHECK(key_prefix_ <= schema_.size());
    if (num_shards == 0) num_shards = 1;
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) shards_.emplace_back(schema_, ctx_);
  }

  const Schema& schema() const { return schema_; }
  size_t key_prefix() const { return key_prefix_; }
  size_t num_shards() const { return shards_.size(); }

  Relation<R>& shard(size_t s) { return shards_[s]; }
  const Relation<R>& shard(size_t s) const { return shards_[s]; }

  /// Shard of a full tuple (routes by its key prefix).
  size_t ShardOf(const Tuple& t) const {
    INCR_DCHECK(t.size() >= key_prefix_);
    return ShardOfPrefix(t);
  }

  /// Shard of a bare key tuple (exactly the key-prefix columns).
  size_t ShardOfKey(const Tuple& key) const {
    INCR_DCHECK(key.size() == key_prefix_);
    return ShardOfPrefix(key);
  }

  size_t size() const {
    size_t n = 0;
    for (const Relation<R>& s : shards_) n += s.size();
    return n;
  }
  bool empty() const { return size() == 0; }

  RV Payload(const Tuple& t) const { return shards_[ShardOf(t)].Payload(t); }
  bool Contains(const Tuple& t) const {
    return shards_[ShardOf(t)].Contains(t);
  }

  void Apply(const Tuple& t, const RV& d) { shards_[ShardOf(t)].Apply(t, d); }

  /// Registers a grouped index on `key` columns on every shard; returns its
  /// (shard-uniform) id. The schema is remembered so Reshard can re-register.
  size_t AddIndex(const Schema& key) {
    for (Relation<R>& s : shards_) s.AddIndex(key);
    index_schemas_.push_back(key);
    return index_schemas_.size() - 1;
  }

  bool paged() const { return ctx_.paged(); }

  /// Backend-agnostic enumeration over every shard's entries, shard 0
  /// first: fn(const Tuple&, const RV&).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Relation<R>& s : shards_) s.ForEachEntry(fn);
  }

  void Clear() {
    for (Relation<R>& s : shards_) s.Clear();
  }

  /// Approximate heap footprint in bytes, summed over shards.
  size_t MemoryBytes() const {
    size_t n = 0;
    for (const Relation<R>& s : shards_) n += s.MemoryBytes();
    return n;
  }

  /// Bytes of page storage, summed over shards (0 on the heap backend).
  size_t PagedBytes() const {
    size_t n = 0;
    for (const Relation<R>& s : shards_) n += s.PagedBytes();
    return n;
  }

  /// Pre-sizes every shard for its expected slice of `n` total entries.
  void Reserve(size_t n) {
    size_t per = (n + shards_.size() - 1) / shards_.size();
    for (Relation<R>& s : shards_) s.Reserve(per);
  }

  /// Rebuilds the relation with `n` shards, redistributing every entry and
  /// re-registering all indexes. O(size); a no-op if n already matches.
  void Reshard(size_t n) {
    if (n == 0) n = 1;
    if (n == shards_.size()) return;
    std::vector<Relation<R>> old = std::move(shards_);
    shards_.clear();
    shards_.reserve(n);
    size_t total = 0;
    for (const Relation<R>& s : old) total += s.size();
    for (size_t s = 0; s < n; ++s) {
      shards_.emplace_back(schema_, ctx_);
      for (const Schema& key : index_schemas_) shards_.back().AddIndex(key);
    }
    Reserve(total);
    for (const Relation<R>& s : old) {
      s.ForEachEntry([this](const Tuple& t, const RV& v) { Apply(t, v); });
    }
  }

  /// Iteration over all entries, shard 0 first (order is a layout detail —
  /// it changes under Reshard — but is deterministic for a fixed layout).
  class const_iterator {
   public:
    const Entry& operator*() const { return *cur_; }
    const Entry* operator->() const { return cur_; }
    const_iterator& operator++() {
      ++cur_;
      SkipEmpty();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return shard_ == o.shard_ && cur_ == o.cur_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class ShardedRelation;
    const_iterator(const std::vector<Relation<R>>* shards, size_t shard)
        : shards_(shards), shard_(shard) {
      cur_ = shard_ < shards_->size() ? (*shards_)[shard_].begin() : nullptr;
      SkipEmpty();
    }
    void SkipEmpty() {
      while (shard_ < shards_->size() && cur_ == (*shards_)[shard_].end()) {
        ++shard_;
        cur_ = shard_ < shards_->size() ? (*shards_)[shard_].begin() : nullptr;
      }
    }
    const std::vector<Relation<R>>* shards_;
    size_t shard_;
    const Entry* cur_;
  };

  const_iterator begin() const { return const_iterator(&shards_, 0); }
  const_iterator end() const { return const_iterator(&shards_, shards_.size()); }

 private:
  size_t ShardOfPrefix(const Tuple& t) const {
    if (shards_.size() == 1) return 0;
    uint64_t h = HashSpan64(reinterpret_cast<const uint64_t*>(t.data()),
                            key_prefix_);
    return ShardOfHash(h, shards_.size());
  }

  Schema schema_;
  size_t key_prefix_;
  StorageContext ctx_;
  std::vector<Relation<R>> shards_;
  std::vector<Schema> index_schemas_;
};

}  // namespace incr

#endif  // INCR_DATA_SHARDED_RELATION_H_
