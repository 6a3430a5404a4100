// First-class deltas (paper §2): an update to a ring-valued database is
// itself a (small) ring-valued database. Single-tuple deltas carry one
// (tuple, ring value) pair; a DeltaBatch groups many of them per atom and
// merges duplicates by ring addition, so every downstream consumer sees at
// most one delta per (atom, tuple) and never sees a zero payload — the
// §2 batch-commutativity argument makes this pre-summing sound: applying
// the merged batch yields the same final state as applying the original
// sequence in any order.
#ifndef INCR_DATA_DELTA_H_
#define INCR_DATA_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "incr/data/dense_map.h"
#include "incr/data/tuple.h"
#include "incr/ring/ring.h"

namespace incr {

/// A single-tuple delta addressed to an atom by position (the engines'
/// internal currency: atom ids index Query::atoms()).
template <RingType R>
struct AtomDelta {
  size_t atom;
  Tuple tuple;
  typename R::Value delta;
};

/// A single-tuple delta addressed by relation name (the external currency:
/// loaders, REPL, and the unified IvmEngine interface route by name; one
/// named delta fans out to every atom occurrence of that relation,
/// realizing the product rule of Eq. (2) for self-joins).
template <RingType R>
struct Delta {
  std::string relation;
  Tuple tuple;
  typename R::Value delta;
};

/// What one ApplyNet did to the map's entry set: sign +1 inserted entry
/// `id`; -1 erased entry `id`, after which the entry that was last (`last`)
/// lives at `id`; 0 changed a payload in place (or nothing, for a zero d).
struct NetChange {
  int sign = 0;
  uint32_t id = 0;
  uint32_t last = 0;
};

/// The one ring-payload upsert (paper §2): payload(t) += d on a DenseMap of
/// R payloads over either record store, erasing t when the sum is zero. One
/// walk finds t or appends it; then an in-place update or a swap-remove.
template <RingType R, typename Map>
NetChange ApplyNet(Map& m, const Tuple& t, const typename R::Value& d) {
  if (R::IsZero(d)) return {};
  const auto [slot, inserted] = m.FindOrInsert(t, d);
  const uint32_t id = m.EntryOf(slot);
  if (inserted) return {1, id, 0};
  typename R::Value v = R::Add(m.ValueAt(id), d);
  if (R::IsZero(v)) return {-1, id, m.EraseSlot(slot)};
  m.SetAt(slot, std::move(v));
  return {};
}

/// A batch of deltas grouped per atom, with ring-payload merging: duplicate
/// tuples within an atom are pre-summed on insertion and deltas whose
/// merged payload is zero are dropped. `size()` counts the surviving
/// merged deltas, not the raw insertions.
template <RingType R>
class DeltaBatch {
 public:
  using RV = typename R::Value;
  using Map = DenseMap<Tuple, RV, TupleHash, TupleEq>;
  using Entry = typename Map::Entry;

  DeltaBatch() = default;
  explicit DeltaBatch(size_t num_atoms) : per_atom_(num_atoms) {}

  /// Merges one single-tuple delta into the batch.
  void Add(size_t atom, const Tuple& t, const RV& d) {
    if (R::IsZero(d)) return;  // a zero delta leaves the batch as it was
    if (atom >= per_atom_.size()) per_atom_.resize(atom + 1);
    size_ += ApplyNet<R>(per_atom_[atom], t, d).sign;
  }

  void Add(const AtomDelta<R>& e) { Add(e.atom, e.tuple, e.delta); }

  void AddAll(std::span<const AtomDelta<R>> batch) {
    for (const AtomDelta<R>& e : batch) Add(e);
  }

  /// Number of atom groups (>= highest atom id added + 1).
  size_t num_atoms() const { return per_atom_.size(); }

  /// Total number of merged, non-zero deltas across all atoms.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The merged deltas of one atom (empty map if none were added).
  const Map& of(size_t atom) const {
    static const Map kEmpty;
    return atom < per_atom_.size() ? per_atom_[atom] : kEmpty;
  }

  /// The merged deltas of one atom as a contiguous span of entries.
  std::span<const Entry> entries(size_t atom) const {
    const Map& m = of(atom);
    return {m.begin(), m.size()};
  }

  void Clear() {
    for (Map& m : per_atom_) m.clear();
    size_ = 0;
  }

  /// Merges every delta of `other` into this batch (ring addition on
  /// duplicates, zero results dropped). Together with per-chunk local
  /// batches this gives a parallel batch merge: partition the input into
  /// contiguous chunks, build one DeltaBatch per chunk concurrently, then
  /// MergeFrom the chunks in input order. Each chunk pre-sums its own
  /// deltas, so the additions are regrouped, not reordered: the merged
  /// payloads equal a sequential merge's whenever ring addition is
  /// associative (not for arbitrary float payloads), and the dense order
  /// can differ where a tuple cancels and comes back.
  void MergeFrom(const DeltaBatch& other) {
    for (size_t a = 0; a < other.num_atoms(); ++a) {
      for (const Entry& e : other.of(a)) Add(a, e.key, e.value);
    }
  }

 private:
  std::vector<Map> per_atom_;
  size_t size_ = 0;
};

}  // namespace incr

#endif  // INCR_DATA_DELTA_H_
