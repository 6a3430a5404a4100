// Relation over a ring (paper §2): a finite map from tuples over a schema to
// non-zero ring payloads, with optional grouped indexes kept in sync on
// every change. Payloads that become zero are physically removed, so |R| is
// always the number of non-zero tuples.
//
// The map is a DenseMap over one of two record stores (DESIGN.md "Storage
// backends"), chosen by the StorageContext passed at construction:
//   * heap (default): records in a std::vector — the O(1) in-memory path.
//   * paged: records in PageStore pages, for view state beyond RAM.
//     Requires a trivially-copyable payload; rings that fail that gate (the
//     provenance ring's heap-allocated polynomials) silently keep the heap
//     store.
// Both run the same slot table and the same mutation code (one body per
// operation, templated over the map and picked at one dispatch point), so
// dense entry order — and with it canonical serialization (store/serde.h)
// — is identical across backends; the differ's heap-vs-paged axis checks
// exactly this.
#ifndef INCR_DATA_RELATION_H_
#define INCR_DATA_RELATION_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "incr/data/delta.h"
#include "incr/data/dense_map.h"
#include "incr/data/grouped_index.h"
#include "incr/data/page_store.h"
#include "incr/data/paged_backend.h"
#include "incr/data/schema.h"
#include "incr/data/tuple.h"
#include "incr/obs/metrics.h"
#include "incr/obs/recorder.h"
#include "incr/ring/ring.h"
#include "incr/util/thread_pool.h"

namespace incr {

namespace detail {
// Batch-path metric handles, shared by every Relation<R> instantiation.
// The single-tuple Apply() is deliberately left unhooked: it is the O(1)
// per-update path whose latency the paper's claims are about.
struct RelationMetricHandles {
  obs::Counter* batch_deltas;   // entries seen by ApplyBatch
  obs::Counter* batch_upserts;  // new tuples inserted
  obs::Counter* batch_erases;   // tuples whose payload reached zero
  obs::Counter* rehashes;       // slot-table rebuilds during batches
};
inline const RelationMetricHandles& RelationMetrics() {
  static const RelationMetricHandles h = [] {
    auto& r = obs::MetricsRegistry::Global();
    return RelationMetricHandles{
        r.GetCounter("relation.batch_deltas"),
        r.GetCounter("relation.batch_upserts"),
        r.GetCounter("relation.batch_erases"),
        r.GetCounter("relation.rehashes"),
    };
  }();
  return h;
}
}  // namespace detail

template <RingType R>
class Relation {
 public:
  using RV = typename R::Value;
  using HeapMap = DenseMap<Tuple, RV, TupleHash, TupleEq>;
  using Entry = typename HeapMap::Entry;

  /// Payloads that can be memcpy'd into pages; everything else falls back
  /// to the heap backend regardless of the context.
  static constexpr bool kPagedCapable = std::is_trivially_copyable_v<RV>;

  explicit Relation(Schema schema, StorageContext ctx = {})
      : schema_(std::move(schema)) {
    if constexpr (kPagedCapable) {
      if (ctx.store != nullptr) {
        store_ = std::move(ctx.store);
        paged_.emplace(PagedRecords<RV>(store_, schema_.size()));
      }
    }
  }

  /// Deep copy, for snapshot versioning: both record stores preserve the
  /// exact slot/entry layout (heap: member-wise vector copy; paged: pages
  /// cloned byte-for-byte on the same store), and indexes are cloned in
  /// registration order, so a copy is bit-identical to the original under
  /// DumpState-style serialization.
  Relation(const Relation& o)
      : schema_(o.schema_),
        store_(o.store_),
        data_(o.data_),
        paged_(o.paged_) {
    indexes_.reserve(o.indexes_.size());
    for (const auto& idx : o.indexes_) {
      indexes_.push_back(std::make_unique<GroupedIndex>(*idx));
    }
  }
  Relation& operator=(const Relation& o) {
    if (this != &o) {
      Relation copy(o);
      *this = std::move(copy);
    }
    return *this;
  }
  Relation(Relation&&) noexcept = default;
  Relation& operator=(Relation&&) noexcept = default;

  const Schema& schema() const { return schema_; }
  bool paged() const { return store_ != nullptr; }
  size_t size() const {
    return Dispatch(*this, [](const auto& m) { return m.size(); });
  }
  bool empty() const { return size() == 0; }

  /// Payload of `t`; Zero if absent.
  RV Payload(const Tuple& t) const {
    return Dispatch(*this, [&](const auto& m) -> RV {
      const size_t slot = m.FindSlot(t);
      return slot == kNoSlot ? R::Zero() : RV(m.ValueAt(m.EntryOf(slot)));
    });
  }

  /// The tuple of dense entry `id` (0 <= id < size()), the ids a grouped
  /// index hands out: a reference into the map on the heap backend, the
  /// tuple decoded into *scratch on paged. Valid until the next mutation
  /// (or reuse of the scratch).
  const Tuple& KeyAt(uint32_t id, Tuple* scratch) const {
    if constexpr (kPagedCapable) {
      if (paged_) {
        *scratch = paged_->KeyAt(id);
        return *scratch;
      }
    }
    return data_.KeyAt(id);
  }

  /// The payload of dense entry `id`.
  RV ValueAt(uint32_t id) const {
    return Dispatch(*this, [id](const auto& m) -> RV { return m.ValueAt(id); });
  }

  bool Contains(const Tuple& t) const {
    return Dispatch(*this,
                    [&](const auto& m) { return m.FindSlot(t) != kNoSlot; });
  }

  /// Applies a delta: payload(t) += d, removing t if the result is zero.
  /// This is the single mutation entry point; all indexes stay in sync.
  /// Returns what it did to the entry set: +1 inserted t, -1 erased it, 0
  /// changed its payload in place (or nothing, for a zero d).
  int Apply(const Tuple& t, const RV& d) {
    INCR_DCHECK(t.size() == schema_.size());
    const NetChange net =
        Dispatch(*this, [&](auto& m) { return ApplyNet<R>(m, t, d); });
    if (net.sign > 0) {
      for (auto& idx : indexes_) idx->Insert(t, net.id);
    } else if (net.sign < 0) {
      for (auto& idx : indexes_) idx->Erase(t, net.id, net.last);
    }
    return net.sign;
  }

  /// Bulk delta application. Pre-reserves the map and every grouped index
  /// for the incoming batch, applies the deltas, and replays the resulting
  /// insert/erase stream once per index (one index at a time, instead of
  /// fanning each tuple out across all indexes). Entries may repeat a
  /// tuple; they are applied in order, so the net effect equals sequential
  /// Apply() calls. The op stream records each op's batch entry and entry
  /// ids, so a replay reads only the batch and never the map. With a pool,
  /// the per-index replays run in parallel — indexes are independent of
  /// one another and the op stream is fixed by then, so this is safe and
  /// deterministic (the PageStore serializes its own metadata under the
  /// paged backend).
  void ApplyBatch(std::span<const Entry> batch, ThreadPool* pool = nullptr) {
    Dispatch(*this, [&](auto& m) { ApplyBatchTo(m, batch, pool); });
  }

  /// Constant-delay iteration over (tuple, payload) entries. Heap backend
  /// only — the pointers alias the dense entry array; storage-agnostic
  /// callers use ForEachEntry.
  const Entry* begin() const {
    INCR_DCHECK(!paged());
    return data_.begin();
  }
  const Entry* end() const {
    INCR_DCHECK(!paged());
    return data_.end();
  }
  const Entry& at(size_t i) const {
    INCR_DCHECK(!paged());
    return data_.at(i);
  }

  /// Backend-agnostic enumeration: fn(const Tuple&, const RV&) for every
  /// entry, in dense order. `fn` must not mutate this relation.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    Dispatch(*this, [&](const auto& m) { m.ForEach(fn); });
  }

  /// Registers a grouped index on `key` columns; returns its id. Existing
  /// contents are indexed immediately. Indexes inherit this relation's
  /// storage backend.
  size_t AddIndex(const Schema& key) {
    auto idx = std::make_unique<GroupedIndex>(schema_, key,
                                              StorageContext{store_});
    idx->Reserve(size());
    uint32_t id = 0;  // ForEachEntry walks the dense order: ids ascend
    ForEachEntry([&](const Tuple& t, const RV&) { idx->Insert(t, id++); });
    indexes_.push_back(std::move(idx));
    return indexes_.size() - 1;
  }

  const GroupedIndex& index(size_t id) const {
    INCR_DCHECK(id < indexes_.size());
    return *indexes_[id];
  }

  size_t num_indexes() const { return indexes_.size(); }

  /// Removes all tuples (indexes are emptied, not dropped).
  void Clear() {
    Dispatch(*this, [](auto& m) { m.clear(); });
    for (auto& idx : indexes_) idx->Clear();
  }

  /// Pre-sizes the underlying map (and nothing else) for `n` total
  /// entries; bulk loaders call this to avoid rehash storms.
  void Reserve(size_t n) {
    Dispatch(*this, [n](auto& m) { m.Reserve(n); });
  }

  /// Approximate heap footprint in bytes (map plus all grouped indexes).
  /// Under the paged backend this counts only the resident structures;
  /// PagedBytes() reports the page storage.
  size_t MemoryBytes() const {
    size_t n = Dispatch(*this, [](const auto& m) { return m.MemoryBytes(); });
    for (const auto& idx : indexes_) n += idx->MemoryBytes();
    return n;
  }

  /// Bytes of page storage held by this relation and its indexes (0 on the
  /// heap backend).
  size_t PagedBytes() const {
    size_t n = Dispatch(*this, [](const auto& m) { return m.PagedBytes(); });
    for (const auto& idx : indexes_) n += idx->PagedBytes();
    return n;
  }

 private:
  /// The one heap/paged dispatch point: runs fn on the map backing `self`.
  template <typename Self, typename Fn>
  static auto Dispatch(Self& self, Fn&& fn) {
    if constexpr (kPagedCapable) {
      if (self.paged_) return fn(*self.paged_);
    }
    return fn(self.data_);
  }

  /// One index op of a batch: what batch entry `i` did to the entry set.
  struct IndexOp {
    uint32_t i;
    NetChange net;
  };

  template <typename Map>
  void ApplyBatchTo(Map& m, std::span<const Entry> batch, ThreadPool* pool) {
    const bool obs_on = obs::Enabled();
    const size_t rehashes_before = obs_on ? m.rehashes() : 0;
    m.Reserve(m.size() + batch.size());
    // The index op stream for the replay; tuples are read back from the
    // batch so no copies are made.
    const bool indexed = !indexes_.empty();
    std::vector<IndexOp> ops;
    if (indexed) ops.reserve(batch.size());
    size_t inserts = 0;
    size_t erases = 0;
    for (uint32_t i = 0; i < batch.size(); ++i) {
      const Entry& e = batch[i];
      const NetChange net = ApplyNet<R>(m, e.key, e.value);
      if (net.sign == 0) continue;
      ++(net.sign > 0 ? inserts : erases);
      if (indexed) ops.push_back({i, net});
    }
    if (obs_on) {
      BatchMetrics(batch.size(), inserts, erases,
                   m.rehashes() - rehashes_before, m.size());
    }
    if (indexed) ReplayOps(batch, ops, inserts, pool);
  }

  void ReplayOps(std::span<const Entry> batch, const std::vector<IndexOp>& ops,
                 size_t inserts, ThreadPool* pool) {
    auto replay = [&](size_t k) {
      GroupedIndex& idx = *indexes_[k];
      // Reserve only for the inserts: a delete-heavy batch must not grow
      // the index tables it is about to shrink.
      idx.Reserve(idx.NumEntries() + inserts);
      for (const auto& [i, net] : ops) {
        if (net.sign > 0) {
          idx.Insert(batch[i].key, net.id);
        } else {
          idx.Erase(batch[i].key, net.id, net.last);
        }
      }
    };
    if (pool != nullptr && indexes_.size() > 1) {
      pool->ParallelFor(indexes_.size(), replay);
    } else {
      for (size_t k = 0; k < indexes_.size(); ++k) replay(k);
    }
  }

  void BatchMetrics(size_t deltas, size_t upserts, size_t erases,
                    size_t rehashes, size_t size_after) {
    const auto& m = detail::RelationMetrics();
    m.batch_deltas->Add(deltas);
    m.batch_upserts->Add(upserts);
    m.batch_erases->Add(erases);
    m.rehashes->Add(rehashes);
    if (rehashes > 0) {
      obs::RecordEvent(obs::EventKind::kRehash, rehashes, size_after);
    }
  }

  Schema schema_;
  std::shared_ptr<PageStore> store_;  // null = heap backend
  HeapMap data_;
  std::optional<PagedTupleMap<RV>> paged_;
  std::vector<std::unique_ptr<GroupedIndex>> indexes_;
};

}  // namespace incr

#endif  // INCR_DATA_RELATION_H_
