// GroupedIndex: for a relation over schema S and a key subset K of S, an
// index that, given a key tuple over K, enumerates with constant delay all
// relation entries agreeing with it, and supports constant-time insert and
// delete of index entries — the index structure required by paper §2.
//
// The index is an index over its owner's dense entry ids (DenseMap entry
// ids: insert appends, erase swap-removes):
//
//   groups_  group key -> slab id (and, on the heap, the slab's buffer, so
//            a group read is one probe and one contiguous run); the one
//            hash map, heap-resident on both backends (group keys are the
//            hot working set).
//   slabs    per group, the member records in member order. A record is
//            the member's entry id followed by the member tuple's columns
//            outside the group key (its rest columns, base-schema order).
//   locs     per owner entry id, that entry's {slab, offset in the slab}.
//
// The rest columns ride next to the id because a group's members lie
// scattered over the owner's dense array: a scan that needs only the
// members' values (the view-tree delta programs and enumerators) reads
// them from the group's own records, one contiguous run, and dereferences
// an id only for what the record lacks (a payload). The group key columns
// are not stored: every member shares them.
//
// Insert costs one group-map operation plus two appends. Erase hashes only
// when the member's group empties: its {slab, offset} comes from the loc
// array, the group's last member moves into the hole (one loc write), and
// the owner's own swap-remove — entry `last` now lives at the erased id —
// is followed with array writes, never a lookup. Member order is insertion
// order with swap-remove inside the group, so the same operation sequence
// gives the same order on either backend (limited ENUMERATE and the
// canonical dumps rely on it).
//
// Callers read a group as a GroupView: iterating yields ids, which they
// dereference through the owner (Relation::KeyAt / ValueAt), and Rest(i,
// j) reads a member's rest column in place. Ids need not cover the owner: an
// index over a subset of a map that never erases (the insert-only engine's
// alive tuples) leaves the unindexed ids' locs unused.
//
// Two interchangeable member stores (DESIGN.md "Storage backends"), chosen
// by the StorageContext passed at construction, with one insert and one
// erase body templated over them:
//   * heap (default): per slab a std::vector of words, the member count
//     and then the records, and one loc vector.
//   * paged: each slab is a PageChain of member records and the loc array
//     is a PageChain of 8-byte records, so cold groups and cold locs age
//     out of the buffer pool. Group(key, scratch) decodes a group's
//     records into the caller's scratch.
#ifndef INCR_DATA_GROUPED_INDEX_H_
#define INCR_DATA_GROUPED_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "incr/data/dense_map.h"
#include "incr/data/page_store.h"
#include "incr/data/paged_backend.h"
#include "incr/data/schema.h"
#include "incr/data/tuple.h"

namespace incr {

/// One group's members in member order, as records of `stride` 32-bit
/// words: the member's owner entry id, then its rest columns (the member
/// tuple's columns outside the group key, in base-schema order), each
/// Value in two words. Iterating yields the ids. Invalidated by any
/// mutation of the index (or reuse of the scratch it was decoded into).
class GroupView {
 public:
  static constexpr uint32_t kValueWords = sizeof(Value) / sizeof(uint32_t);

  GroupView() = default;
  GroupView(const uint32_t* words, size_t size, uint32_t stride)
      : words_(words), size_(size), stride_(stride) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The owner entry id of member i.
  uint32_t operator[](size_t i) const { return words_[i * stride_]; }
  /// Rest column j of member i (records need not be 8-byte aligned).
  Value Rest(size_t i, size_t j) const {
    Value v;
    std::memcpy(&v, words_ + i * stride_ + 1 + j * kValueWords, sizeof(v));
    return v;
  }

  /// Yields the member ids.
  class Iterator {
   public:
    Iterator(const uint32_t* p, uint32_t stride) : p_(p), stride_(stride) {}
    uint32_t operator*() const { return *p_; }
    Iterator& operator++() {
      p_ += stride_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return p_ != o.p_; }

   private:
    const uint32_t* p_;
    uint32_t stride_;
  };
  Iterator begin() const { return {words_, stride_}; }
  Iterator end() const { return {words_ + size_ * stride_, stride_}; }

 private:
  const uint32_t* words_ = nullptr;
  size_t size_ = 0;
  uint32_t stride_ = 1;
};

class GroupedIndex {
  /// The one heap/paged dispatch point: runs fn on the member store. Ahead
  /// of the public members, with its return type spelled out, so that
  /// their bodies can use it before the stores are declared.
  template <typename Self, typename Fn>
  static auto Dispatch(Self& self, Fn&& fn) -> decltype(fn(self.heap_)) {
    if (!self.paged_) return fn(self.heap_);
    return fn(*self.paged_);
  }

 public:
  /// `base` is the indexed relation's schema, `key` the grouping columns
  /// (each must occur in `base`). A context with a store selects the paged
  /// backend.
  GroupedIndex(const Schema& base, const Schema& key, StorageContext ctx = {})
      : key_schema_(key), key_positions_(ProjectionPositions(base, key)) {
    for (uint32_t c = 0; c < base.size(); ++c) {
      if (std::find(key_positions_.begin(), key_positions_.end(), c) ==
          key_positions_.end()) {
        rest_positions_.push_back(c);
      }
    }
    const uint32_t stride = static_cast<uint32_t>(
        1 + GroupView::kValueWords * rest_positions_.size());
    heap_.stride = stride;
    if (ctx.store != nullptr) paged_.emplace(std::move(ctx.store), stride);
  }

  /// Deep copy: the heap store copies member-wise (and the group map is
  /// re-pointed at the copied buffers); the paged store clones every page
  /// chain on the same store. Member order, slab ids and locs are
  /// preserved exactly.
  GroupedIndex(const GroupedIndex& o)
      : key_schema_(o.key_schema_),
        key_positions_(o.key_positions_),
        rest_positions_(o.rest_positions_),
        groups_(o.groups_),
        free_slabs_(o.free_slabs_),
        entries_(o.entries_),
        heap_(o.heap_),
        paged_(o.paged_) {
    if (paged_) return;
    for (uint32_t i = 0; i < groups_.size(); ++i) {
      GroupRef& g = groups_.ValueAt(i);
      g.words = heap_.Words(g.slab);
    }
  }
  GroupedIndex& operator=(const GroupedIndex&) = delete;
  GroupedIndex(GroupedIndex&&) noexcept = default;
  GroupedIndex& operator=(GroupedIndex&&) = delete;

  const Schema& key_schema() const { return key_schema_; }
  bool paged() const { return paged_.has_value(); }

  /// The base-schema positions of the rest columns, in the order
  /// GroupView::Rest numbers them.
  const SmallVector<uint32_t, 4>& rest_positions() const {
    return rest_positions_;
  }

  /// The group key of a full tuple.
  Tuple KeyOf(const Tuple& t) const { return ProjectTuple(t, key_positions_); }

  /// Adds owner entry `id`, whose tuple is `t`, to its group. One
  /// group-map operation.
  void Insert(const Tuple& t, uint32_t id) {
    SmallVector<uint32_t, 9> rec;
    rec.resize(heap_.stride);
    rec[0] = id;
    for (size_t j = 0; j < rest_positions_.size(); ++j) {
      std::memcpy(&rec[1 + j * GroupView::kValueWords],
                  &t[rest_positions_[j]], sizeof(Value));
    }
    Dispatch(*this, [&](auto& store) {
      const size_t slot =
          groups_.FindOrInsert(KeyOf(t), GroupRef{kNone, nullptr}).slot;
      GroupRef& g = groups_.ValueAt(groups_.EntryOf(slot));
      if (g.slab == kNone) g.slab = NewSlab(store);
      store.SetLoc(id, Loc{g.slab, store.Push(g.slab, rec.data())});
      g.words = store.Words(g.slab);  // the append may have moved it
    });
    ++entries_;
  }

  /// Removes owner entry `id`, whose tuple is `t`, from its group, then
  /// follows the owner's swap-remove: `last` is the owner's last entry id
  /// before the erase, whose entry now lives at `id` (`last == id` when
  /// nothing moved). Hashes only when the group empties. Requires an index
  /// covering every owner entry.
  void Erase(const Tuple& t, uint32_t id, uint32_t last) {
    Dispatch(*this, [&](auto& store) {
      INCR_DCHECK(store.NumLocs() == size_t{last} + 1);
      const Loc loc = store.GetLoc(id);
      // Swap-remove inside the group: its last member takes the hole.
      const uint32_t moved = store.RemoveAt(loc.slab, loc.offset);
      if (moved != kNone) store.SetOffset(moved, loc.offset);
      if (store.Empty(loc.slab)) {
        groups_.Erase(KeyOf(t));
        free_slabs_.push_back(loc.slab);
      }
      // The owner moved entry `last` to `id`: rename it.
      if (last != id) {
        const Loc l = store.GetLoc(last);
        store.SetLoc(id, l);
        store.SetMember(l.slab, l.offset, id);
      }
      store.PopLoc();
    });
    --entries_;
  }

  /// The members of the group of `key`, in member order; empty when the
  /// group is. The heap store views its own slab (scratch untouched, no
  /// copy); the paged store decodes the records into *scratch. Either way
  /// the view is invalidated by any mutation of the index (or reuse of the
  /// scratch).
  GroupView Group(const Tuple& key, std::vector<uint32_t>* scratch) const {
    const size_t slot = groups_.FindSlot(key);
    if (slot == kNoSlot) return {};
    const GroupRef& g = groups_.ValueAt(groups_.EntryOf(slot));
    if (!paged_) return HeapStore::View(g.words, heap_.stride);
    return paged_->Decode(g.slab, scratch);
  }

  /// Number of members in the group of `key` (its degree).
  size_t GroupSize(const Tuple& key) const {
    const size_t slot = groups_.FindSlot(key);
    if (slot == kNoSlot) return 0;
    const uint32_t slab = groups_.ValueAt(groups_.EntryOf(slot)).slab;
    return Dispatch(*this, [slab](const auto& store) -> size_t {
      return store.Size(slab);
    });
  }

  /// Number of distinct non-empty groups.
  size_t NumGroups() const { return groups_.size(); }

  /// The key of group `i` (0 <= i < NumGroups()), in the group map's dense
  /// order: constant-delay iteration over the distinct keys, on either
  /// backend. Positions are stable only between mutations.
  const Tuple& GroupKey(size_t i) const { return groups_.at(i).key; }

  /// Total number of indexed entries.
  size_t NumEntries() const { return entries_; }

  /// Room in the loc array for owner ids below `n`. Grows geometrically, as
  /// DenseMap::Reserve does, so per-batch reserves never copy it each time.
  void Reserve(size_t n) {
    Dispatch(*this, [n](auto& store) { store.ReserveLocs(n); });
  }

  void Clear() {
    Dispatch(*this, [](auto& store) { store.Clear(); });
    groups_.clear();
    free_slabs_.clear();
    entries_ = 0;
  }

  /// Approximate heap footprint in bytes: the group map, the slab table
  /// and, on the heap store, the id and loc arrays (by capacity). On the
  /// paged store the page bytes are not counted; PagedBytes reports them.
  size_t MemoryBytes() const {
    return groups_.MemoryBytes() + free_slabs_.capacity() * sizeof(uint32_t) +
           Dispatch(*this,
                    [](const auto& store) { return store.MemoryBytes(); });
  }

  /// Bytes of page storage held by this index (paged backend; 0 on heap).
  size_t PagedBytes() const {
    return paged_ ? paged_->PagedBytes() : 0;
  }

 private:
  /// Where an owner entry sits: its group's slab and its offset there.
  struct Loc {
    uint32_t slab;
    uint32_t offset;
  };
  /// A group-map value: the group's slab and, on the heap store, that
  /// slab's buffer, so that a group read goes from the map entry straight
  /// to the records. Re-pointed wherever the buffer may move: after each
  /// append, and in a copy of the index.
  struct GroupRef {
    uint32_t slab;
    const uint32_t* words;
  };
  using Groups = DenseMap<Tuple, GroupRef, TupleHash, TupleEq>;
  /// No slab (a group being created, an unindexed id's loc) or no member
  /// (nothing moved on a swap-remove).
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Heap member store: one vector of words per slab, one loc vector. A
  /// slab's words are its member count, then its records (word 0 of
  /// record i at 1 + i * stride), so that a group map entry's buffer
  /// pointer alone yields the group.
  struct HeapStore {
    uint32_t stride = 1;  // words per member record
    std::vector<std::vector<uint32_t>> slabs;
    std::vector<Loc> locs;

    static GroupView View(const uint32_t* words, uint32_t stride) {
      return {words + 1, words[0], stride};
    }
    uint32_t NewSlab() {
      slabs.emplace_back(1, 0);
      return static_cast<uint32_t>(slabs.size() - 1);
    }
    const uint32_t* Words(uint32_t s) const { return slabs[s].data(); }
    uint32_t Size(uint32_t s) const { return slabs[s][0]; }
    bool Empty(uint32_t s) const { return slabs[s][0] == 0; }
    /// Appends a member record; returns its offset.
    uint32_t Push(uint32_t s, const uint32_t* rec) {
      std::vector<uint32_t>& g = slabs[s];
      g.insert(g.end(), rec, rec + stride);
      return g[0]++;
    }
    /// Swap-removes the member at offset `i`; returns the member moved into
    /// `i`, or kNone when `i` was last.
    uint32_t RemoveAt(uint32_t s, uint32_t i) {
      std::vector<uint32_t>& g = slabs[s];
      const size_t at = 1 + size_t{i} * stride;
      uint32_t moved = kNone;
      if (at + stride != g.size()) {
        std::copy(g.end() - stride, g.end(), g.begin() + at);
        moved = g[at];
      }
      g.erase(g.end() - stride, g.end());
      --g[0];
      return moved;
    }
    void SetMember(uint32_t s, uint32_t i, uint32_t id) {
      slabs[s][1 + size_t{i} * stride] = id;
    }
    size_t NumLocs() const { return locs.size(); }
    Loc GetLoc(uint32_t id) const { return locs[id]; }
    void SetLoc(uint32_t id, Loc l) {
      if (id >= locs.size()) locs.resize(size_t{id} + 1, Loc{kNone, 0});
      locs[id] = l;
    }
    void SetOffset(uint32_t id, uint32_t offset) { locs[id].offset = offset; }
    void PopLoc() { locs.pop_back(); }
    void ReserveLocs(size_t n) {
      if (n > locs.capacity()) locs.reserve(std::max(n, 2 * locs.capacity()));
    }
    void Clear() {
      slabs.clear();
      locs.clear();
    }
    size_t MemoryBytes() const {
      size_t n = slabs.capacity() * sizeof(std::vector<uint32_t>) +
                 locs.capacity() * sizeof(Loc);
      for (const auto& g : slabs) n += g.capacity() * sizeof(uint32_t);
      return n;
    }
  };

  /// Paged member store: one PageChain of member records per slab and a
  /// PageChain of 8-byte locs. Owns its pages: copying clones them.
  struct PagedStore {
    PagedStore(std::shared_ptr<PageStore> ps, uint32_t stride)
        : store(std::move(ps)),
          stride(stride),
          rec_layout(*store, /*arity=*/0, stride * sizeof(uint32_t)),
          loc_layout(*store, /*arity=*/0, sizeof(Loc)) {}
    PagedStore(const PagedStore& o)
        : store(o.store),
          stride(o.stride),
          rec_layout(o.rec_layout),
          loc_layout(o.loc_layout),
          locs(o.locs.Clone(*store)) {
      slabs.reserve(o.slabs.size());
      for (const PageChain& c : o.slabs) slabs.push_back(c.Clone(*store));
    }
    PagedStore(PagedStore&& o) noexcept
        : store(std::move(o.store)),
          stride(o.stride),
          rec_layout(o.rec_layout),
          loc_layout(o.loc_layout),
          slabs(std::move(o.slabs)),
          locs(std::exchange(o.locs, {})) {}
    PagedStore& operator=(const PagedStore&) = delete;
    PagedStore& operator=(PagedStore&&) = delete;
    ~PagedStore() {
      if (store != nullptr) Clear();
    }

    std::shared_ptr<PageStore> store;
    uint32_t stride;  // words per member record
    PageLayout rec_layout;
    PageLayout loc_layout;
    std::vector<PageChain> slabs;
    PageChain locs;

    template <typename T>
    T Read(const PageChain& c, const PageLayout& l, uint32_t i) const {
      T v;
      std::memcpy(&v, c.Pin(*store, l, i, /*write=*/false).get(), sizeof(T));
      return v;
    }
    template <typename T>
    void Write(const PageChain& c, const PageLayout& l, uint32_t i,
               const T& v, size_t at = 0) {
      std::memcpy(c.Pin(*store, l, i, /*write=*/true).get() + at, &v,
                  sizeof(T));
    }

    uint32_t NewSlab() {
      slabs.emplace_back();
      return static_cast<uint32_t>(slabs.size() - 1);
    }
    const uint32_t* Words(uint32_t) const { return nullptr; }
    uint32_t Size(uint32_t s) const { return slabs[s].size; }
    bool Empty(uint32_t s) const { return slabs[s].size == 0; }
    uint32_t Push(uint32_t s, const uint32_t* rec) {
      std::memcpy(slabs[s].Append(*store, rec_layout).get(), rec,
                  rec_layout.record_bytes);
      return slabs[s].size - 1;
    }
    uint32_t RemoveAt(uint32_t s, uint32_t i) {
      PageChain& g = slabs[s];
      uint32_t moved = kNone;
      if (i + 1 != g.size) {
        g.MoveLastTo(*store, rec_layout, i);
        moved = Read<uint32_t>(g, rec_layout, i);
      }
      g.PopBack(*store, rec_layout);
      return moved;
    }
    void SetMember(uint32_t s, uint32_t i, uint32_t id) {
      Write(slabs[s], rec_layout, i, id);
    }
    size_t NumLocs() const { return locs.size; }
    Loc GetLoc(uint32_t id) const { return Read<Loc>(locs, loc_layout, id); }
    void SetLoc(uint32_t id, Loc l) {
      if (id < locs.size) return Write(locs, loc_layout, id, l);
      // Ids past the end (an index over a subset of its owner) get unused
      // placeholder locs; the new id's loc goes straight into its record.
      const Loc none{kNone, 0};
      while (locs.size < id) {
        std::memcpy(locs.Append(*store, loc_layout).get(), &none, sizeof(none));
      }
      std::memcpy(locs.Append(*store, loc_layout).get(), &l, sizeof(l));
    }
    void SetOffset(uint32_t id, uint32_t offset) {
      Write(locs, loc_layout, id, offset, offsetof(Loc, offset));
    }
    void PopLoc() { locs.PopBack(*store, loc_layout); }
    void ReserveLocs(size_t n) {
      const size_t pages = (n + loc_layout.per_page - 1) / loc_layout.per_page;
      if (pages > locs.pages.capacity()) {
        locs.pages.reserve(std::max(pages, 2 * locs.pages.capacity()));
      }
    }
    GroupView Decode(uint32_t s, std::vector<uint32_t>* scratch) const {
      scratch->resize(size_t{slabs[s].size} * stride);
      uint32_t* out = scratch->data();
      slabs[s].ForEach(*store, rec_layout, [&](const uint8_t* p) {
        std::memcpy(out, p, rec_layout.record_bytes);
        out += stride;
      });
      return {scratch->data(), slabs[s].size, stride};
    }
    void Clear() {
      for (PageChain& c : slabs) c.FreeAll(*store);
      slabs.clear();
      locs.FreeAll(*store);
    }
    size_t MemoryBytes() const {
      size_t n = slabs.capacity() * sizeof(PageChain) + locs.HeapBytes();
      for (const PageChain& c : slabs) n += c.HeapBytes();
      return n;
    }
    size_t PagedBytes() const {
      size_t pages = locs.pages.size();
      for (const PageChain& c : slabs) pages += c.pages.size();
      return pages * store->page_bytes();
    }
  };

  /// A slab for a new group: a freed one if any, else a fresh one. A freed
  /// heap slab keeps its buffer, as a shrinking group does, so churn of
  /// groups that empty and reform does not reach the allocator.
  template <typename Store>
  uint32_t NewSlab(Store& store) {
    if (free_slabs_.empty()) return store.NewSlab();
    const uint32_t s = free_slabs_.back();
    free_slabs_.pop_back();
    return s;
  }

  Schema key_schema_;
  SmallVector<uint32_t, 4> key_positions_;
  SmallVector<uint32_t, 4> rest_positions_;  // base columns not in the key
  Groups groups_;                    // group key -> slab (both backends)
  std::vector<uint32_t> free_slabs_;  // slabs of emptied groups
  size_t entries_ = 0;
  HeapStore heap_;                    // used when paged_ is empty
  std::optional<PagedStore> paged_;   // the paged member store
};

}  // namespace incr

#endif  // INCR_DATA_GROUPED_INDEX_H_
