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
#include <span>
#include <string>
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
    if (R::IsZero(d)) return;
    if (atom >= per_atom_.size()) per_atom_.resize(atom + 1);
    Map& m = per_atom_[atom];
    RV* existing = m.Find(t);
    if (existing == nullptr) {
      m.GetOrInsert(t, d);
      ++size_;
      return;
    }
    *existing = R::Add(*existing, d);
    if (R::IsZero(*existing)) {
      m.Erase(t);
      --size_;
    }
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
  /// MergeFrom the chunks in input order — per (atom, tuple) the additions
  /// happen in original input order, so the result is identical to a
  /// sequential merge even for non-associative float payloads.
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
