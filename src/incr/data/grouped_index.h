// GroupedIndex: for a relation over schema S and a key subset K of S, an
// index that, given a key tuple over K, enumerates with constant delay all
// relation tuples agreeing with it, and supports amortized-constant insert
// and delete of index entries — the index structure required by paper §2.
//
// Two interchangeable backends (DESIGN.md "Storage backends"), chosen by
// the StorageContext passed at construction, with one insert and one
// swap-remove body templated over them:
//   * heap (default): key -> dense vector of member tuples, plus a position
//     map (full tuple -> offset in its group) so deletion is a swap-remove.
//   * paged: the group-key map stays heap-resident (group keys are the hot
//     working set), but each group's member tuples live in a PageStore page
//     chain and the position map's records are paged — cold groups age out
//     of the buffer pool. Group(key, scratch) materializes a group through
//     the caller's scratch vector, in the same member order as the heap.
#ifndef INCR_DATA_GROUPED_INDEX_H_
#define INCR_DATA_GROUPED_INDEX_H_

#include <memory>
#include <optional>
#include <vector>

#include "incr/data/dense_map.h"
#include "incr/data/page_store.h"
#include "incr/data/paged_backend.h"
#include "incr/data/schema.h"
#include "incr/data/tuple.h"

namespace incr {

class GroupedIndex {
  /// The one heap/paged dispatch point: runs fn(groups, positions) on the
  /// maps backing `self`. Defined ahead of the public members so its
  /// return type is deduced before their bodies use it.
  template <typename Self, typename Fn>
  static auto Dispatch(Self& self, Fn&& fn) {
    if (self.store_ == nullptr) return fn(self.groups_, self.positions_);
    return fn(self.pgroups_, *self.ppositions_);
  }

 public:
  /// `base` is the indexed relation's schema, `key` the grouping columns
  /// (each must occur in `base`). A context with a store selects the paged
  /// backend.
  GroupedIndex(const Schema& base, const Schema& key, StorageContext ctx = {})
      : key_schema_(key),
        key_positions_(ProjectionPositions(base, key)),
        store_(std::move(ctx.store)) {
    if (store_ != nullptr) {
      member_layout_ = PageLayout(*store_, base.size(), /*payload_bytes=*/0);
      ppositions_.emplace(PagedRecords<uint32_t>(store_, base.size()));
    }
  }

  /// Deep copy: the heap backend copies maps member-wise; the paged
  /// backend clones every page chain on the same store, preserving member
  /// order (and so enumeration behavior) exactly.
  GroupedIndex(const GroupedIndex& o)
      : key_schema_(o.key_schema_),
        key_positions_(o.key_positions_),
        store_(o.store_),
        member_layout_(o.member_layout_),
        groups_(o.groups_),
        positions_(o.positions_),
        ppositions_(o.ppositions_) {
    if (store_ != nullptr) {
      for (const auto& e : o.pgroups_) {
        pgroups_.GetOrInsert(e.key) = e.value.Clone(*store_);
      }
    }
  }
  GroupedIndex& operator=(const GroupedIndex&) = delete;
  GroupedIndex(GroupedIndex&&) noexcept = default;
  GroupedIndex& operator=(GroupedIndex&& o) noexcept {
    if (this != &o) {
      ReleaseChains();
      key_schema_ = std::move(o.key_schema_);
      key_positions_ = std::move(o.key_positions_);
      store_ = std::move(o.store_);
      member_layout_ = o.member_layout_;
      groups_ = std::move(o.groups_);
      positions_ = std::move(o.positions_);
      pgroups_ = std::move(o.pgroups_);
      ppositions_ = std::move(o.ppositions_);
    }
    return *this;
  }

  ~GroupedIndex() { ReleaseChains(); }

  const Schema& key_schema() const { return key_schema_; }
  bool paged() const { return store_ != nullptr; }

  /// The group key of a full tuple.
  Tuple KeyOf(const Tuple& t) const { return ProjectTuple(t, key_positions_); }

  /// Adds `t` to its group. Must not already be present.
  void Insert(const Tuple& t) {
    Dispatch(*this, [&](auto& groups, auto& positions) {
      auto& members = groups.GetOrInsert(KeyOf(t));
      positions.InsertNew(t, Size(members));
      Push(members, t);
    });
  }

  /// Removes `t` from its group. Returns true if it was present.
  bool Erase(const Tuple& t) {
    return Dispatch(*this, [&](auto& groups, auto& positions) {
      const size_t slot = positions.FindSlot(t);
      if (slot == kNoSlot) return false;
      const uint32_t idx = positions.ValueAt(slot);
      const Tuple key = KeyOf(t);
      auto* members = groups.Find(key);
      INCR_DCHECK(members != nullptr);
      // Swap-remove: the last member moves into the hole and its position
      // is re-pointed. `slot` survives — SetAt never moves a slot.
      if (idx + 1 != Size(*members)) {
        const Tuple& moved = MoveLastTo(*members, idx);
        positions.SetAt(positions.FindSlot(moved), idx);
      }
      PopBack(*members);
      positions.EraseSlot(slot);
      if (Size(*members) == 0) groups.Erase(key);
      return true;
    });
  }

  /// The tuples in the group of `key`; nullptr if the group is empty.
  /// Heap backend only (the pointer aliases internal storage, invalidated
  /// by any mutation); storage-agnostic callers use the scratch overload.
  const std::vector<Tuple>* Group(const Tuple& key) const {
    INCR_DCHECK(store_ == nullptr);
    return groups_.Find(key);
  }

  /// Backend-agnostic group access: on the heap backend returns the
  /// internal member vector (scratch untouched — the zero-copy fast path);
  /// on the paged backend decodes the group into *scratch and returns it.
  /// Either way nullptr means an empty group, and the result is
  /// invalidated by any mutation of the index (or reuse of the scratch).
  const std::vector<Tuple>* Group(const Tuple& key,
                                  std::vector<Tuple>* scratch) const {
    if (store_ == nullptr) return groups_.Find(key);
    const PagedTupleChain* chain = pgroups_.Find(key);
    if (chain == nullptr) return nullptr;
    scratch->clear();
    chain->AppendTo(*store_, member_layout_, scratch);
    return scratch;
  }

  /// Number of tuples in the group of `key` (its degree).
  size_t GroupSize(const Tuple& key) const {
    return Dispatch(*this, [&](const auto& groups, const auto&) -> size_t {
      const auto* members = groups.Find(key);
      return members == nullptr ? 0 : Size(*members);
    });
  }

  /// Number of distinct non-empty groups.
  size_t NumGroups() const {
    return Dispatch(*this, [](const auto& groups, const auto&) {
      return groups.size();
    });
  }

  /// Total number of indexed tuples.
  size_t NumEntries() const {
    return Dispatch(*this, [](const auto&, const auto& positions) {
      return positions.size();
    });
  }

  /// Constant-delay iteration over the distinct group keys (heap backend
  /// only; paged callers enumerate via the owning relation).
  const DenseMap<Tuple, std::vector<Tuple>, TupleHash, TupleEq>& groups()
      const {
    INCR_DCHECK(store_ == nullptr);
    return groups_;
  }

  /// Pre-sizes the position map for `n` total entries (bulk insertion).
  /// Group storage grows on demand; the position map is the rehash hotspot.
  void Reserve(size_t n) {
    Dispatch(*this, [n](auto&, auto& positions) { positions.Reserve(n); });
  }

  void Clear() {
    ReleaseChains();
    Dispatch(*this, [](auto& groups, auto& positions) {
      groups.clear();
      positions.clear();
    });
  }

  /// Approximate heap footprint in bytes (heap backend: group vectors
  /// counted by capacity; paged backend: the resident structures — group
  /// key map, page-id lists, position-map slot table — without the page
  /// bytes, which PagedBytes reports).
  size_t MemoryBytes() const {
    return Dispatch(*this, [](const auto& groups, const auto& positions) {
      size_t n = groups.MemoryBytes() + positions.MemoryBytes();
      for (const auto& e : groups) n += HeapBytes(e.value);
      return n;
    });
  }

  /// Bytes of page storage held by this index (paged backend; 0 on heap).
  size_t PagedBytes() const {
    if (store_ == nullptr) return 0;
    size_t pages = ppositions_->PagedBytes() / store_->page_bytes();
    for (const auto& e : pgroups_) pages += e.value.pages.size();
    return pages * store_->page_bytes();
  }

 private:
  using HeapGroups = DenseMap<Tuple, std::vector<Tuple>, TupleHash, TupleEq>;
  static constexpr size_t kNoSlot = HeapGroups::kNoSlot;

  // Member-list operations, one overload per backend.
  static uint32_t Size(const std::vector<Tuple>& g) {
    return static_cast<uint32_t>(g.size());
  }
  static uint32_t Size(const PagedTupleChain& c) { return c.size; }
  void Push(std::vector<Tuple>& g, const Tuple& t) { g.push_back(t); }
  void Push(PagedTupleChain& c, const Tuple& t) {
    c.Push(*store_, member_layout_, t);
  }
  /// Moves the last member into position `i` (not last); returns it.
  static const Tuple& MoveLastTo(std::vector<Tuple>& g, uint32_t i) {
    g[i] = std::move(g.back());
    return g[i];
  }
  Tuple MoveLastTo(PagedTupleChain& c, uint32_t i) {
    Tuple moved;
    c.MoveLastTo(*store_, member_layout_, i, &moved);
    return moved;
  }
  static void PopBack(std::vector<Tuple>& g) { g.pop_back(); }
  void PopBack(PagedTupleChain& c) { c.PopBack(*store_, member_layout_); }
  static size_t HeapBytes(const std::vector<Tuple>& g) {
    return g.capacity() * sizeof(Tuple);
  }
  static size_t HeapBytes(const PagedTupleChain& c) { return c.HeapBytes(); }

  void ReleaseChains() {
    if (store_ == nullptr) return;
    for (const auto& e : pgroups_) {
      for (PageId p : e.value.pages) store_->Free(p);
    }
  }

  Schema key_schema_;
  SmallVector<uint32_t, 4> key_positions_;
  std::shared_ptr<PageStore> store_;  // null = heap backend
  PageLayout member_layout_;          // paged group-member record format

  // Heap backend.
  HeapGroups groups_;
  DenseMap<Tuple, uint32_t, TupleHash, TupleEq> positions_;

  // Paged backend: group keys resident, members + positions in pages.
  DenseMap<Tuple, PagedTupleChain, TupleHash, TupleEq> pgroups_;
  std::optional<PagedTupleMap<uint32_t>> ppositions_;
};

}  // namespace incr

#endif  // INCR_DATA_GROUPED_INDEX_H_
