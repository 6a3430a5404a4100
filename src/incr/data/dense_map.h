// DenseMap: a flat open-addressing hash map with a dense record array and a
// SwissTable-style group-probing slot table — the repo's only hash table.
//
// This is the workhorse container behind relations, views, and indexes. The
// IVM data-structure contract from paper §2 is exactly its design brief:
//   * lookup / insert / erase in amortized constant time,
//   * enumeration of entries with constant delay (dense array scan, no
//     skipping over empty buckets as in node- or bucket-based maps).
//
// Layout (see DESIGN.md "Flat hash core"):
//
//   records_  the dense {key, value} array — insertion order, swap-remove
//             on erase, never a hole; enumeration is a linear scan. Where it
//             lives is the `Records` policy: HeapRecords (a std::vector, the
//             default) or PagedRecords (fixed-width records in a PageStore
//             page chain, data/paged_backend.h).
//   hashes_   the full 64-bit hash of each dense record, cached at insert so
//             rehashing and swap-remove slot patching never re-hash a key.
//   ctrl_     one control byte per slot: kEmpty, kDeleted, or the low 7
//             bits of the record's hash (its H2 fragment). Probing tests 16
//             control bytes at a time with one SSE2/NEON compare (scalar
//             SWAR fallback), so a lookup usually touches one 16-byte
//             control line plus one key — not a chain of full entries.
//   slots_    the record index per slot, consulted only on a control match.
//
// The slot table (ctrl_, slots_, hashes_) is always heap-resident and is the
// same code for both record stores; only the key compare and the record
// moves go through the store. The table is a power of two >= 16 slots,
// organized as aligned 16-slot groups. Probing walks groups in a triangular
// sequence (g, g+1, g+3, ...), which visits every group exactly once when
// the group count is a power of two. A probe stops at the first group
// containing an empty slot — deleted slots (tombstones) keep probe chains
// alive until a rebuild purges them. The table is rebuilt when live +
// tombstone load exceeds 7/8 (growing only when live load alone exceeds
// 1/2).
//
// Determinism: the dense order of the records after any operation sequence
// depends only on that sequence (insert appends; erase swap-removes), never
// on the slot table's layout or the record store — snapshot serialization,
// the parallel batch path and heap/paged byte identity rely on this.
//
// Entry ids: a record's position in the dense array. Insert appends (the
// new record's id is size() - 1); erase swap-removes, so the one record
// whose id changes is the last one, which takes the erased id. EraseSlot
// reports that move, and owners of per-entry side structures (the grouped
// indexes of data/grouped_index.h) follow it with array writes instead of
// re-hashing anything.
//
// One access API, the same on both stores: FindSlot / FindOrInsert /
// EntryOf / SetAt / EraseSlot / Erase, plus KeyAt / ValueAt by entry id. A
// slot stays valid until the next insert or rebuild (SetAt and EraseSlot
// never move other slots). The heap store also offers begin/end/at, a
// dense view whose references any mutation invalidates.
#ifndef INCR_DATA_DENSE_MAP_H_
#define INCR_DATA_DENSE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

#include "incr/util/check.h"

namespace incr {

namespace detail {

/// A 16-bit mask of matching slots within one 16-slot control group, plus
/// the one-shot probe that produces it. Bit i set <=> control byte i
/// matched. Iterate with NextBit.
struct GroupProbe {
  static constexpr size_t kWidth = 16;

  /// Slots whose control byte equals `b` (an H2 fragment or a special).
  static inline uint32_t MatchH2(const int8_t* ctrl, int8_t b) {
#if defined(__SSE2__)
    const __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(g, _mm_set1_epi8(b))));
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
    const uint8x16_t g = vld1q_u8(reinterpret_cast<const uint8_t*>(ctrl));
    const uint8x16_t eq = vceqq_u8(g, vdupq_n_u8(static_cast<uint8_t>(b)));
    // Collapse each byte's MSB into a 16-bit mask (one bit per lane).
    const uint8x8_t bits = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    const uint64_t packed = vget_lane_u64(vreinterpret_u64_u8(bits), 0);
    // Each original byte is now a nibble (0x0 or 0xF); keep one bit each.
    uint32_t mask = 0;
    for (int i = 0; i < 16; ++i) {
      mask |= static_cast<uint32_t>((packed >> (i * 4)) & 1) << i;
    }
    return mask;
#else
    return MatchByteSwar(ctrl, static_cast<uint8_t>(b));
#endif
  }

  /// Index of the lowest set bit; callers guarantee mask != 0.
  static inline unsigned NextBit(uint32_t mask) {
    return static_cast<unsigned>(__builtin_ctz(mask));
  }

 private:
  // Portable SWAR fallback: classic zero-byte detection over two 64-bit
  // halves of the group.
  static inline uint32_t MatchByteSwar(const int8_t* ctrl, uint8_t b) {
    const uint64_t pattern = 0x0101010101010101ULL * b;
    uint32_t mask = 0;
    for (int half = 0; half < 2; ++half) {
      uint64_t word;
      std::memcpy(&word, ctrl + half * 8, 8);
      const uint64_t x = word ^ pattern;
      const uint64_t zero =
          (x - 0x0101010101010101ULL) & ~x & 0x8080808080808080ULL;
      // One bit per matching byte.
      uint64_t bits = zero >> 7;
      for (int i = 0; i < 8; ++i) {
        mask |= static_cast<uint32_t>((bits >> (i * 8)) & 1)
                << (half * 8 + i);
      }
    }
    return mask;
  }
};

}  // namespace detail

/// The slot DenseMap::FindSlot returns for an absent key.
inline constexpr size_t kNoSlot = SIZE_MAX;

template <typename K, typename V>
struct DenseEntry {
  K key;
  V value;
};

/// The default record store: a std::vector of entries. Keys are compared
/// directly (no cached-hash screen — the key is on the same line as the
/// value the caller wants next).
template <typename K, typename V, typename Eq = std::equal_to<K>>
class HeapRecords {
 public:
  using Entry = DenseEntry<K, V>;
  static constexpr bool kHashScreen = false;

  size_t size() const { return entries_.size(); }
  const Entry* data() const { return entries_.data(); }
  bool KeyEquals(uint32_t i, const K& key) const {
    return eq_(entries_[i].key, key);
  }
  const K& Key(uint32_t i) const { return entries_[i].key; }
  V& Value(uint32_t i) { return entries_[i].value; }
  const V& Value(uint32_t i) const { return entries_[i].value; }
  void SetValue(uint32_t i, V v) { entries_[i].value = std::move(v); }
  void Append(const K& key, V v) {
    entries_.push_back(Entry{key, std::move(v)});
  }
  /// Moves the last record into position `i` (if it is not already last)
  /// and drops the last position.
  void SwapRemove(uint32_t i) {
    if (i + 1 != entries_.size()) entries_[i] = std::move(entries_.back());
    entries_.pop_back();
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.key, e.value);
  }
  void Reserve(size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }
  size_t MemoryBytes() const { return entries_.capacity() * sizeof(Entry); }
  size_t PagedBytes() const { return 0; }

 private:
  std::vector<Entry> entries_;
  [[no_unique_address]] Eq eq_{};
};

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>,
          typename Records = HeapRecords<K, V, Eq>>
class DenseMap {
 public:
  using Entry = DenseEntry<K, V>;

  DenseMap() { InitTable(kMinCapacity); }
  explicit DenseMap(Records records) : records_(std::move(records)) {
    InitTable(kMinCapacity);
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return size() == 0; }

  /// Dense, constant-delay iteration over all entries (heap store only).
  const Entry* begin() const { return records_.data(); }
  const Entry* end() const { return records_.data() + size(); }

  /// Entry at dense position `i` (0 <= i < size(); heap store only).
  /// Positions are stable only between mutations.
  const Entry& at(size_t i) const {
    INCR_DCHECK(i < size());
    return records_.data()[i];
  }

  /// fn(const K&, const V&) for every record, in dense order. `fn` must
  /// not mutate this map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    records_.ForEach(fn);
  }

  void clear() {
    records_.clear();
    hashes_.clear();
    InitTable(kMinCapacity);
    tombstones_ = 0;
  }

  /// Room for `n` records without a rehash or a record-array move. Grows
  /// geometrically: batch paths call this with size() + batch size, and an
  /// exact reserve would move every record on each batch past the last
  /// high (and on the first growth of a freshly copied map).
  void Reserve(size_t n) {
    size_t needed = NextPow2(n * 8 / 7 + 1);
    if (needed > Capacity()) Rebuild(needed);
    if (n > hashes_.capacity()) {
      n = std::max(n, 2 * hashes_.capacity());
      records_.Reserve(n);
      hashes_.reserve(n);
    }
  }

  /// Number of slot-table rebuilds (growth, tombstone purges, and Reserve)
  /// since construction. Feeds the relation rehash counters.
  size_t rehashes() const { return rehashes_; }

  /// Approximate heap footprint in bytes: the record store's resident part,
  /// the cached hashes, and the slot table (control bytes + record
  /// indexes). Out-of-line key/value allocations (e.g. SmallVector spill)
  /// are not counted; this feeds the snapshot memory gauges, which only
  /// need the dominant terms.
  size_t MemoryBytes() const {
    return records_.MemoryBytes() + hashes_.capacity() * sizeof(uint64_t) +
           ctrl_.capacity() * sizeof(int8_t) +
           slots_.capacity() * sizeof(uint32_t);
  }

  /// Bytes of page storage held by the record store (0 on the heap).
  size_t PagedBytes() const { return records_.PagedBytes(); }

  /// The slot holding `key`, or kNoSlot.
  size_t FindSlot(const K& key) const {
    const uint64_t h = hash_(key);
    return Walk(h, KeyHit(key, h), nullptr);
  }

  /// FindOrInsert's answer: the slot holding the key, and whether this call
  /// appended it (its entry id is then size() - 1).
  struct Found {
    size_t slot;
    bool inserted;
  };

  /// The slot of `key`, appending a record {key, v} first if it is absent.
  /// One walk finds both the key and, on a miss, the slot an insert takes;
  /// `v` is only converted to V on a miss.
  template <typename U = V>
  Found FindOrInsert(const K& key, U&& v) {
    const uint64_t h = hash_(key);
    size_t at = 0;
    const size_t slot = Walk(h, KeyHit(key, h), &at);
    if (slot != kNoSlot) return {slot, false};
    return {Place(at, key, V(std::forward<U>(v)), h), true};
  }

  /// The entry id of the record in `slot`.
  uint32_t EntryOf(size_t slot) const { return slots_[slot]; }

  /// The key and value of entry `id` (0 <= id < size()): references on the
  /// heap store, copies decoded from the page on paged.
  decltype(auto) KeyAt(uint32_t id) const { return records_.Key(id); }
  decltype(auto) ValueAt(uint32_t id) const { return records_.Value(id); }
  decltype(auto) ValueAt(uint32_t id) { return records_.Value(id); }

  void SetAt(size_t slot, V v) {
    records_.SetValue(slots_[slot], std::move(v));
  }

  /// Removes the record in `slot`. Swap-remove: the last record moves into
  /// the hole and its slot is re-pointed — found via its cached hash, with
  /// no key re-hash or compare. Returns the entry id the last record had
  /// before the erase: the record now at EntryOf(slot)'s old id came from
  /// there (equal to that id when the erased record was the last).
  uint32_t EraseSlot(size_t slot) {
    const uint32_t idx = slots_[slot];
    ctrl_[slot] = kDeleted;
    ++tombstones_;
    const uint32_t last = static_cast<uint32_t>(size()) - 1;
    if (idx != last) {
      const size_t moved_slot =
          Walk(hashes_[last], [last](uint32_t i) { return i == last; },
               nullptr);
      INCR_DCHECK(moved_slot != kNoSlot);
      hashes_[idx] = hashes_[last];
      slots_[moved_slot] = idx;
    }
    records_.SwapRemove(idx);
    hashes_.pop_back();
    return last;
  }

  /// Removes `key`. Returns true if it was present.
  bool Erase(const K& key) {
    const size_t slot = FindSlot(key);
    if (slot == kNoSlot) return false;
    EraseSlot(slot);
    return true;
  }

 private:
  static constexpr size_t kGroupWidth = detail::GroupProbe::kWidth;
  // Control byte values. Full slots hold the record's 7-bit H2 fragment
  // (0..127, i.e. non-negative); the specials have the sign bit set.
  static constexpr int8_t kEmpty = static_cast<int8_t>(0x80);    // -128
  static constexpr int8_t kDeleted = static_cast<int8_t>(0xFE);  // -2
  static constexpr size_t kMinCapacity = 16;  // one group

  /// Group-selection bits: everything above the 7 H2 bits.
  static size_t H1(uint64_t h) { return static_cast<size_t>(h >> 7); }
  /// The 7-bit fragment cached in the control byte.
  static int8_t H2(uint64_t h) { return static_cast<int8_t>(h & 0x7f); }

  size_t Capacity() const { return ctrl_.size(); }
  size_t NumGroups() const { return ctrl_.size() / kGroupWidth; }

  static size_t NextPow2(size_t n) {
    size_t p = kMinCapacity;
    while (p < n) p <<= 1;
    return p;
  }

  void InitTable(size_t capacity) {
    ctrl_.assign(capacity, kEmpty);
    slots_.assign(capacity, 0);
  }

  /// Record-index predicate for `key`. The paged store screens on the
  /// cached full hash first, so nearly every false H2 match is rejected
  /// before a page is pinned; the heap store compares keys directly.
  auto KeyHit(const K& key, uint64_t h) const {
    return [this, &key, h](uint32_t idx) {
      if constexpr (Records::kHashScreen) {
        if (hashes_[idx] != h) return false;
      }
      return records_.KeyEquals(idx, key);
    };
  }

  /// The one probe loop. Walks the chain of hash `h` and returns the first
  /// slot whose control byte matches and whose record index satisfies
  /// `hit`, or kNoSlot at the first group holding an empty slot. In the
  /// latter case `insert_at` (if non-null) receives the slot an insert
  /// takes: the first tombstone on the chain, else that first empty slot.
  template <typename Hit>
  size_t Walk(uint64_t h, Hit&& hit, size_t* insert_at) const {
    const int8_t h2 = H2(h);
    const size_t group_mask = NumGroups() - 1;
    size_t g = H1(h) & group_mask;
    size_t first_deleted = kNoSlot;
    for (size_t step = 1;; ++step) {
      const int8_t* gc = ctrl_.data() + g * kGroupWidth;
      for (uint32_t m = detail::GroupProbe::MatchH2(gc, h2); m != 0;
           m &= m - 1) {
        const size_t slot = g * kGroupWidth + detail::GroupProbe::NextBit(m);
        if (hit(slots_[slot])) return slot;
      }
      if (insert_at != nullptr && first_deleted == kNoSlot) {
        const uint32_t d = detail::GroupProbe::MatchH2(gc, kDeleted);
        if (d != 0) {
          first_deleted = g * kGroupWidth + detail::GroupProbe::NextBit(d);
        }
      }
      const uint32_t empty = detail::GroupProbe::MatchH2(gc, kEmpty);
      if (empty != 0) {
        if (insert_at != nullptr) {
          *insert_at = first_deleted != kNoSlot
                           ? first_deleted
                           : g * kGroupWidth +
                                 detail::GroupProbe::NextBit(empty);
        }
        return kNoSlot;
      }
      g = (g + step) & group_mask;  // triangular: visits every group once
    }
  }

  /// The slot an insert of hash `h` takes (a walk that matches nothing).
  size_t InsertSlot(uint64_t h) const {
    size_t at = 0;
    Walk(h, [](uint32_t) { return false; }, &at);
    return at;
  }

  /// Appends a new record {key, v} of hash `h` to the dense array and
  /// returns its slot: `at`, the insert slot a missed walk found, unless the
  /// insert first rebuilds the table. Out of line: inlined into
  /// FindOrInsert, the insert and rebuild code slowed every call, hits
  /// included (a heap relation insert with one index: 207 vs 190 ns on a
  /// 4-core x86 host).
  [[gnu::noinline]] size_t Place(size_t at, const K& key, V v, uint64_t h) {
    // A rebuild moves every slot: walk the new table for the insert slot.
    if (MaybeRebuild()) at = InsertSlot(h);
    if (ctrl_[at] == kDeleted) --tombstones_;
    ctrl_[at] = H2(h);
    slots_[at] = static_cast<uint32_t>(size());
    records_.Append(key, std::move(v));
    hashes_.push_back(h);
    return at;
  }

  /// Rebuilds before an insert if it would break the load bound; returns
  /// whether it did.
  bool MaybeRebuild() {
    // Keep live + tombstone load under 7/8; grow only if live load alone
    // exceeds 1/2, otherwise rebuild at the same size to purge tombstones.
    size_t used = size() + tombstones_ + 1;
    if (used * 8 < Capacity() * 7) return false;
    size_t cap = Capacity();
    if ((size() + 1) * 2 >= cap) cap <<= 1;
    Rebuild(cap);
    return true;
  }

  void Rebuild(size_t capacity) {
    ++rehashes_;
    InitTable(capacity);
    tombstones_ = 0;
    for (uint32_t idx = 0; idx < size(); ++idx) {
      // Cached hash: a rebuild never re-hashes a key.
      const size_t at = InsertSlot(hashes_[idx]);
      ctrl_[at] = H2(hashes_[idx]);
      slots_[at] = idx;
    }
  }

  Records records_;
  std::vector<uint64_t> hashes_;  // full hash per dense record (same order)
  std::vector<int8_t> ctrl_;      // one control byte per slot
  std::vector<uint32_t> slots_;   // record index per slot
  size_t tombstones_ = 0;
  size_t rehashes_ = 0;
  [[no_unique_address]] Hash hash_{};
};

}  // namespace incr

#endif  // INCR_DATA_DENSE_MAP_H_
