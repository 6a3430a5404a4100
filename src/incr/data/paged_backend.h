// The paged record stores behind Relation and GroupedIndex (DESIGN.md
// "Storage backends"): the bulk bytes of view state live in PageStore pages
// instead of the heap, so state can exceed the buffer-pool budget.
//
//   PageChain        a dense array of fixed-width records (PageLayout)
//                    spread across a chain of pages — append, pinned
//                    access (RecordPin), move-last/pop-back, deep copy.
//                    Everything paged is built on it: the store below, and
//                    GroupedIndex's paged member store, whose chains hold
//                    member records, an id and the member's rest columns
//                    (one chain per group), and 8-byte {slab, offset} locs
//                    (one chain per index). Hot groups
//                    stay resident because their pages keep getting
//                    referenced; cold groups page out wholesale.
//
//   PagedRecords<V>  DenseMap's paged record store: {key values, payload}
//                    records of fixed width. DenseMap keeps its slot table
//                    (control bytes, slot indexes, cached hashes) on the
//                    heap — it is the hot probe path and a fraction of the
//                    record bytes — while cold record pages age out of the
//                    pool. The probe, insert and swap-remove logic is
//                    DenseMap's own, so dense record order matches the heap
//                    store's for any operation sequence.
//
// Records are raw little-endian bytes (memcpy of int64 key values plus a
// trivially-copyable payload), matching the layout assumptions the rest of
// the codebase already makes (TupleHash hashes the raw value array).
// Payload types that are not trivially copyable (the provenance ring's
// polynomial) cannot be paged; Relation falls back to heap for them.
#ifndef INCR_DATA_PAGED_BACKEND_H_
#define INCR_DATA_PAGED_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "incr/data/dense_map.h"
#include "incr/data/page_store.h"
#include "incr/data/tuple.h"
#include "incr/util/check.h"

namespace incr {

/// The fixed-width record format of one page chain: `arity` key values,
/// then `payload_bytes`, `per_page` records to a page. Computed once per
/// container, so addressing a record costs one division. Arity 0 gives a
/// raw record of `payload_bytes` (a grouped index's member ids and locs).
struct PageLayout {
  PageLayout() = default;
  PageLayout(const PageStore& ps, size_t arity, size_t payload_bytes)
      : arity(arity),
        record_bytes(
            std::max<size_t>(arity * sizeof(Value) + payload_bytes, 1)),
        per_page(ps.page_bytes() / record_bytes) {
    INCR_CHECK(per_page > 0);
  }
  size_t key_bytes() const { return arity * sizeof(Value); }

  size_t arity = 0;
  size_t record_bytes = 0;
  size_t per_page = 0;
};

/// Decodes the `arity` key values at the front of a record into *t
/// (records need not be 8-byte aligned, hence the memcpy).
inline void DecodeKey(const uint8_t* p, size_t arity, Tuple* t) {
  t->resize(arity);
  std::memcpy(t->data(), p, arity * sizeof(Value));
}

/// Pins the page holding record `i` of a chain for the guard's lifetime.
/// Pinning one page twice nests.
class RecordPin {
 public:
  RecordPin(PageStore& ps, const std::vector<PageId>& pages,
            const PageLayout& l, uint32_t i, bool write)
      : ps_(ps),
        page_(pages[i / l.per_page]),
        write_(write),
        bytes_(ps.Pin(page_, write) + (i % l.per_page) * l.record_bytes) {}
  ~RecordPin() { ps_.Unpin(page_, /*dirty=*/write_); }
  RecordPin(const RecordPin&) = delete;
  RecordPin& operator=(const RecordPin&) = delete;

  uint8_t* get() const { return bytes_; }

 private:
  PageStore& ps_;
  PageId page_;
  bool write_;
  uint8_t* bytes_;
};

/// A dense array of fixed-width records across PageStore pages.
/// Operations take the store and layout as parameters so the struct itself
/// stays a pair of plain fields (cheap to hold as a DenseMap value).
/// Copying the struct aliases the pages — use Clone for a deep copy and
/// FreeAll before dropping the last reference.
struct PageChain {
  std::vector<PageId> pages;
  uint32_t size = 0;

  RecordPin Pin(PageStore& ps, const PageLayout& l, uint32_t i,
                bool write) const {
    return RecordPin(ps, pages, l, i, write);
  }

  /// Appends a record and returns it pinned for writing.
  RecordPin Append(PageStore& ps, const PageLayout& l) {
    if (size % l.per_page == 0) pages.push_back(ps.Alloc());
    return RecordPin(ps, pages, l, size++, /*write=*/true);
  }

  /// Moves the last record into position `i` (which must not be last).
  void MoveLastTo(PageStore& ps, const PageLayout& l, uint32_t i) {
    INCR_DCHECK(i + 1 < size);
    const RecordPin src = Pin(ps, l, size - 1, /*write=*/false);
    const RecordPin dst = Pin(ps, l, i, /*write=*/true);
    std::memmove(dst.get(), src.get(), l.record_bytes);
  }

  /// Drops the last record, freeing a page that empties.
  void PopBack(PageStore& ps, const PageLayout& l) {
    INCR_DCHECK(size > 0);
    if (--size % l.per_page == 0) {
      ps.Free(pages.back());
      pages.pop_back();
    }
  }

  /// fn(const uint8_t* record) for every record in chain order, pinning
  /// each page once across its records.
  template <typename Fn>
  void ForEach(PageStore& ps, const PageLayout& l, Fn&& fn) const {
    for (size_t pi = 0; pi < pages.size(); ++pi) {
      const size_t n = std::min<size_t>(l.per_page, size - pi * l.per_page);
      const uint8_t* base = ps.Pin(pages[pi], /*for_write=*/false);
      for (size_t r = 0; r < n; ++r) fn(base + r * l.record_bytes);
      ps.Unpin(pages[pi], /*dirty=*/false);
    }
  }

  /// Deep copy on the same store: pages are cloned byte-for-byte.
  PageChain Clone(PageStore& ps) const {
    PageChain c;
    c.size = size;
    c.pages.reserve(pages.size());
    for (PageId src : pages) {
      const PageId dst = ps.Alloc();
      const uint8_t* s = ps.Pin(src, /*for_write=*/false);
      std::memcpy(ps.Pin(dst, /*for_write=*/true), s, ps.page_bytes());
      ps.Unpin(dst, /*dirty=*/true);
      ps.Unpin(src, /*dirty=*/false);
      c.pages.push_back(dst);
    }
    return c;
  }

  void FreeAll(PageStore& ps) {
    for (PageId p : pages) ps.Free(p);
    pages.clear();
    size = 0;
  }

  size_t HeapBytes() const { return pages.capacity() * sizeof(PageId); }
};

/// DenseMap's paged record store for Tuple keys of a fixed arity and a
/// trivially-copyable payload V — enforced where the constructor
/// instantiates, so a Relation over a non-copyable ring can still declare
/// (and never build) the member. Owns its pages: copying clones them on the
/// same store, so a copy's dense order matches the original exactly.
template <typename V>
class PagedRecords {
 public:
  static constexpr bool kHashScreen = true;

  PagedRecords(std::shared_ptr<PageStore> store, size_t arity)
      : store_(std::move(store)), layout_(*store_, arity, sizeof(V)) {
    static_assert(std::is_trivially_copyable_v<V>);
  }
  PagedRecords(const PagedRecords& o)
      : store_(o.store_),
        layout_(o.layout_),
        chain_(o.chain_.Clone(*store_)) {}
  PagedRecords(PagedRecords&& o) noexcept
      : store_(std::move(o.store_)),
        layout_(o.layout_),
        chain_(std::exchange(o.chain_, {})) {}
  PagedRecords& operator=(const PagedRecords&) = delete;
  PagedRecords& operator=(PagedRecords&& o) noexcept {
    if (this != &o) {
      clear();
      store_ = std::move(o.store_);
      layout_ = o.layout_;
      chain_ = std::exchange(o.chain_, {});
    }
    return *this;
  }
  ~PagedRecords() { clear(); }

  size_t size() const { return chain_.size; }

  bool KeyEquals(uint32_t i, const Tuple& key) const {
    return std::memcmp(Pin(i, false).get(), key.data(),
                       layout_.key_bytes()) == 0;
  }
  Tuple Key(uint32_t i) const {
    Tuple t;
    DecodeKey(Pin(i, false).get(), layout_.arity, &t);
    return t;
  }
  V Value(uint32_t i) const {
    V v;
    std::memcpy(&v, Pin(i, false).get() + layout_.key_bytes(), sizeof(V));
    return v;
  }
  void SetValue(uint32_t i, const V& v) {
    std::memcpy(Pin(i, true).get() + layout_.key_bytes(), &v, sizeof(V));
  }
  void Append(const Tuple& key, const V& v) {
    INCR_DCHECK(key.size() == layout_.arity);
    const RecordPin rec = chain_.Append(*store_, layout_);
    std::memcpy(rec.get(), key.data(), layout_.key_bytes());
    std::memcpy(rec.get() + layout_.key_bytes(), &v, sizeof(V));
  }
  void SwapRemove(uint32_t i) {
    if (i + 1 != size()) chain_.MoveLastTo(*store_, layout_, i);
    chain_.PopBack(*store_, layout_);
  }

  /// fn(const Tuple&, const V&) in dense record order. `fn` must not
  /// mutate this store (pinning other pages is fine).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Tuple key;
    V value;
    chain_.ForEach(*store_, layout_, [&](const uint8_t* p) {
      DecodeKey(p, layout_.arity, &key);
      std::memcpy(&value, p + layout_.key_bytes(), sizeof(V));
      fn(key, static_cast<const V&>(value));
    });
  }

  void Reserve(size_t n) {
    chain_.pages.reserve((n + layout_.per_page - 1) / layout_.per_page);
  }
  void clear() {
    if (store_ != nullptr) chain_.FreeAll(*store_);
  }
  /// Resident part: the page-id list.
  size_t MemoryBytes() const { return chain_.HeapBytes(); }
  size_t PagedBytes() const {
    return chain_.pages.size() * store_->page_bytes();
  }

 private:
  RecordPin Pin(uint32_t i, bool write) const {
    return chain_.Pin(*store_, layout_, i, write);
  }

  std::shared_ptr<PageStore> store_;
  PageLayout layout_;
  PageChain chain_;
};

/// A DenseMap from fixed-arity tuples to V whose records live in pages.
template <typename V>
using PagedTupleMap =
    DenseMap<Tuple, V, TupleHash, TupleEq, PagedRecords<V>>;

}  // namespace incr

#endif  // INCR_DATA_PAGED_BACKEND_H_
