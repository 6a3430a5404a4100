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
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "incr/data/dense_map.h"
#include "incr/data/tuple.h"
#include "incr/obs/metrics.h"
#include "incr/ring/ring.h"
#include "incr/util/env.h"
#include "incr/util/hash.h"

namespace incr {

/// Upper bound of a shard count (INCR_SHARDS, EngineOptions::shards).
inline constexpr size_t kMaxShards = size_t{1} << 16;

/// Process-wide shard count for delta partitioning and sharded W storage
/// (DeltaShards, ShardedRelation, ViewTree::DefaultDeltaShards): the
/// INCR_SHARDS environment variable if set to an integer in
/// [1, kMaxShards], else 16 (other values are ignored with a warning, as
/// EngineOptions::FromEnv ignores them). Read once at first use, then fixed
/// for the process — results must never depend on shard count changing
/// mid-run — and recorded as the "config.shards" gauge so every
/// StatsSnapshot documents it.
inline size_t NumShards() {
  static const size_t kNumShards = [] {
    long long shards = 16;
    if (const char* env = std::getenv("INCR_SHARDS")) {
      ParseEnvInt("INCR_SHARDS", env, 1, static_cast<long long>(kMaxShards),
                  &shards);
    }
    obs::MetricsRegistry::Global().GetGauge("config.shards")->Set(shards);
    return static_cast<size_t>(shards);
  }();
  return kNumShards;
}

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

/// A hash partition of one atom's merged deltas into per-shard sub-batches —
/// the unit of parallelism for shard-parallel ApplyBatch. Two partitioning
/// modes:
///
///   * ByKey: shard by the hash of a projection of each tuple (the columns
///     feeding the target node's group-by key). Shards then touch disjoint
///     keys of the target, so they can be applied lock-free in parallel;
///     within a shard, tuples keep their input order (stable partition), so
///     per-key processing order is the sequential order restricted to the
///     shard — the determinism argument of DESIGN.md.
///   * ByRange: contiguous chunks of the input in order (zero-copy spans).
///     The fallback when the source does not determine the node key; each
///     chunk's results are accumulated shard-locally and merged via R::Add.
///
/// Shard count is a caller-fixed constant independent of thread count —
/// results must never depend on how many threads execute the shards.
template <RingType R>
class DeltaShards {
 public:
  using Entry = typename DeltaBatch<R>::Entry;

  /// Stable hash partition: entry e goes to shard
  /// ShardOfHash(HashSpan64(e.key[proj[0]], .., e.key[proj[k-1]]), n).
  /// An empty projection sends every entry to one shard (hash of the empty
  /// span is a constant) — degenerate but correct.
  static DeltaShards ByKey(std::span<const Entry> entries,
                           std::span<const uint32_t> proj, size_t n) {
    DeltaShards out;
    out.owned_.resize(n);
    Tuple key;
    for (const Entry& e : entries) {
      key.clear();
      for (uint32_t c : proj) key.push_back(e.key[c]);
      uint64_t h = HashSpan64(reinterpret_cast<const uint64_t*>(key.data()),
                              key.size());
      out.owned_[ShardOfHash(h, n)].push_back(e);
    }
    out.spans_.reserve(n);
    for (const auto& shard : out.owned_) {
      out.spans_.emplace_back(shard.data(), shard.size());
    }
    return out;
  }

  /// Contiguous chunking: n spans covering `entries` in order (some may be
  /// empty when the input is smaller than the shard count).
  static DeltaShards ByRange(std::span<const Entry> entries, size_t n) {
    DeltaShards out;
    out.spans_.reserve(n);
    size_t per = entries.size() / n;
    size_t extra = entries.size() % n;
    size_t begin = 0;
    for (size_t s = 0; s < n; ++s) {
      size_t len = per + (s < extra ? 1 : 0);
      out.spans_.push_back(entries.subspan(begin, len));
      begin += len;
    }
    return out;
  }

  size_t num_shards() const { return spans_.size(); }
  std::span<const Entry> shard(size_t s) const { return spans_[s]; }

 private:
  std::vector<std::vector<Entry>> owned_;  // backing storage (ByKey only)
  std::vector<std::span<const Entry>> spans_;
};

}  // namespace incr

#endif  // INCR_DATA_DELTA_H_
