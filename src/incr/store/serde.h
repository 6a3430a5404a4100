// Binary serialization primitives for the durability layer (WAL records and
// checkpoint snapshots).
//
// Everything here is explicitly little-endian and fixed-width, so files move
// between builds and machines; readers never trust input lengths (a reader
// that runs off the end of its buffer goes !ok() and stays there, it never
// reads out of bounds). Integrity is CRC32C (Castagnoli) over whole frames —
// the polynomial with the best published error-detection record for storage,
// computed in software (slice-by-8) so no ISA extension is assumed.
//
// PayloadSerde<R> maps every ring in the library to a byte encoding and a
// stable format name ("int", "covar<4>", "product<int,real>", ...). The
// name is embedded in WAL and snapshot headers so a file written under one
// ring can never be silently decoded under another.
#ifndef INCR_STORE_SERDE_H_
#define INCR_STORE_SERDE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "incr/data/relation.h"
#include "incr/data/sharded_relation.h"
#include "incr/data/tuple.h"
#include "incr/data/value.h"
#include "incr/ring/bool_semiring.h"
#include "incr/ring/covar_ring.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/minplus_semiring.h"
#include "incr/ring/product_ring.h"
#include "incr/ring/provenance.h"
#include "incr/ring/ring.h"
#include "incr/util/status.h"

namespace incr::store {

/// CRC32C (Castagnoli, 0x1EDC6F41 reflected) of `n` bytes, continuing from
/// `seed` (pass a previous result to extend a running checksum over
/// multiple spans; 0 starts fresh).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutLe(v, 2); }
  void PutU32(uint32_t v) { PutLe(v, 4); }
  void PutU64(uint64_t v) { PutLe(v, 8); }
  void PutI64(int64_t v) { PutLe(static_cast<uint64_t>(v), 8); }
  void PutDouble(double v) { PutLe(std::bit_cast<uint64_t>(v), 8); }

  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Length-prefixed string (u16 length; names, not bulk data).
  void PutString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  /// u16 arity followed by the values.
  void PutTuple(const Tuple& t) {
    PutU16(static_cast<uint16_t>(t.size()));
    for (Value v : t) PutI64(v);
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>(v & 0xff));
      v >>= 8;
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. All getters
/// return 0 / empty once the reader has gone !ok(); callers check ok()
/// after a parse, not after every field.
class ByteReader {
 public:
  ByteReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), end_(p_ + n) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t GetU8() { return static_cast<uint8_t>(GetLe(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLe(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLe(4)); }
  uint64_t GetU64() { return GetLe(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetLe(8)); }
  double GetDouble() { return std::bit_cast<double>(GetLe(8)); }

  /// Borrowed view of the next n bytes; empty and !ok() on underrun.
  std::string_view GetBytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string_view out(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return out;
  }

  std::string GetString() {
    size_t n = GetU16();
    return std::string(GetBytes(n));
  }

  Tuple GetTuple() {
    size_t n = GetU16();
    Tuple t;
    if (!ok_ || remaining() < n * 8) {
      ok_ = false;
      return t;
    }
    t.reserve(n);
    for (size_t i = 0; i < n; ++i) t.push_back(GetI64());
    return t;
  }

 private:
  uint64_t GetLe(size_t bytes) {
    if (!ok_ || remaining() < bytes) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    }
    p_ += bytes;
    return v;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// ----------------------------------------------------------------------
// Ring payload encodings. One specialization per ring; composite rings
// compose. Read returns false (and leaves *out unspecified) on underrun.

template <typename R>
struct PayloadSerde;

template <>
struct PayloadSerde<IntRing> {
  static std::string Name() { return "int"; }
  static void Write(ByteWriter& w, const int64_t& v) { w.PutI64(v); }
  static bool Read(ByteReader& r, int64_t* out) {
    *out = r.GetI64();
    return r.ok();
  }
};

template <>
struct PayloadSerde<RealRing> {
  static std::string Name() { return "real"; }
  static void Write(ByteWriter& w, const double& v) { w.PutDouble(v); }
  static bool Read(ByteReader& r, double* out) {
    *out = r.GetDouble();
    return r.ok();
  }
};

template <>
struct PayloadSerde<BoolSemiring> {
  static std::string Name() { return "bool"; }
  static void Write(ByteWriter& w, const bool& v) { w.PutU8(v ? 1 : 0); }
  static bool Read(ByteReader& r, bool* out) {
    *out = r.GetU8() != 0;
    return r.ok();
  }
};

template <>
struct PayloadSerde<MinPlusSemiring> {
  static std::string Name() { return "minplus"; }
  static void Write(ByteWriter& w, const int64_t& v) { w.PutI64(v); }
  static bool Read(ByteReader& r, int64_t* out) {
    *out = r.GetI64();
    return r.ok();
  }
};

template <RingType R1, RingType R2>
struct PayloadSerde<ProductRing<R1, R2>> {
  using Value = typename ProductRing<R1, R2>::Value;
  static std::string Name() {
    return "product<" + PayloadSerde<R1>::Name() + "," +
           PayloadSerde<R2>::Name() + ">";
  }
  static void Write(ByteWriter& w, const Value& v) {
    PayloadSerde<R1>::Write(w, v.first);
    PayloadSerde<R2>::Write(w, v.second);
  }
  static bool Read(ByteReader& r, Value* out) {
    return PayloadSerde<R1>::Read(r, &out->first) &&
           PayloadSerde<R2>::Read(r, &out->second);
  }
};

template <size_t K>
struct PayloadSerde<CovarRing<K>> {
  using Value = CovarValue<K>;
  static std::string Name() { return "covar<" + std::to_string(K) + ">"; }
  static void Write(ByteWriter& w, const Value& v) {
    w.PutI64(v.count);
    for (double d : v.sum) w.PutDouble(d);
    for (double d : v.prod) w.PutDouble(d);
  }
  static bool Read(ByteReader& r, Value* out) {
    out->count = r.GetI64();
    for (double& d : out->sum) d = r.GetDouble();
    for (double& d : out->prod) d = r.GetDouble();
    return r.ok();
  }
};

template <>
struct PayloadSerde<ProvenanceRing> {
  static std::string Name() { return "provenance"; }
  static void Write(ByteWriter& w, const Polynomial& v) {
    w.PutU32(static_cast<uint32_t>(v.terms().size()));
    for (const auto& [mono, coeff] : v.terms()) {
      w.PutU32(static_cast<uint32_t>(mono.size()));
      for (const auto& [var, pow] : mono) {
        w.PutU32(var);
        w.PutU32(pow);
      }
      w.PutI64(coeff);
    }
  }
  static bool Read(ByteReader& r, Polynomial* out) {
    std::map<Monomial, int64_t> terms;
    uint32_t n = r.GetU32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      Monomial mono;
      uint32_t vars = r.GetU32();
      for (uint32_t j = 0; j < vars && r.ok(); ++j) {
        uint32_t var = r.GetU32();
        uint32_t pow = r.GetU32();
        mono.emplace(var, pow);
      }
      int64_t coeff = r.GetI64();
      if (coeff != 0) terms.emplace(std::move(mono), coeff);
    }
    if (!r.ok()) return false;
    *out = Polynomial::FromTerms(std::move(terms));
    return true;
  }
};

/// Stable on-disk format name for ring R (embedded in file headers).
template <RingType R>
std::string RingSerdeName() {
  return PayloadSerde<R>::Name();
}

// ----------------------------------------------------------------------
// Relation serde: a u64 count followed by (tuple, payload) entries in
// canonical (lexicographic key) order. Canonical order makes the dump a
// pure function of the relation's *contents*: the in-memory iteration
// order of a relation is history-dependent (DenseMap erase swap-removes in
// the dense array, while a GroupedIndex's id groups keep insertion order
// with swap-remove inside each group, so after deletions a group's member
// order is no longer the dense order of its entries), and a snapshot load
// rebuilds both in dump order — necessarily losing the history. Sorting
// here means two semantically equal relations always serialize to the same
// bytes, which is what makes "recovered state is bit-identical to a shadow
// replay" (recovery_test, check/differ) a true invariant rather than one
// that only holds for delete-free histories.
//
// Loading applies each entry to a cleared relation, so every Apply is a
// fresh insert and payloads are restored byte-for-byte — no ring additions
// happen on the load path, which is what makes recovered float-ring state
// bit-identical to the dumped state.

namespace internal {

inline bool TupleLess(const Tuple& a, const Tuple& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// Entries of `rel` (any container of {key: Tuple, value} entries with
/// begin/end) as pointers sorted by key. Keys within one relation are
/// unique, so the order is total.
template <typename Rel>
std::vector<const typename Rel::Entry*> SortedEntries(const Rel& rel) {
  std::vector<const typename Rel::Entry*> order;
  order.reserve(rel.size());
  for (const auto& e : rel) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const auto* a, const auto* b) { return TupleLess(a->key, b->key); });
  return order;
}

/// Paged relations cannot hand out entry pointers; materialize (tuple,
/// payload) pairs through the backend-agnostic enumeration, then sort.
/// The bytes written are identical to the heap path's — canonical order
/// depends only on contents — which is exactly the differ's heap-vs-paged
/// equivalence axis.
template <RingType R, typename Rel>
std::vector<typename Relation<R>::Entry> MaterializedSorted(const Rel& rel) {
  std::vector<typename Relation<R>::Entry> out;
  out.reserve(rel.size());
  rel.ForEachEntry([&](const Tuple& t, const typename R::Value& v) {
    out.push_back({t, v});
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return TupleLess(a.key, b.key);
  });
  return out;
}

}  // namespace internal

template <RingType R>
void WriteRelation(ByteWriter& w, const Relation<R>& rel) {
  w.PutU64(rel.size());
  if (rel.paged()) {
    for (const auto& e : internal::MaterializedSorted<R>(rel)) {
      w.PutTuple(e.key);
      PayloadSerde<R>::Write(w, e.value);
    }
    return;
  }
  for (const auto* e : internal::SortedEntries(rel)) {
    w.PutTuple(e->key);
    PayloadSerde<R>::Write(w, e->value);
  }
}

template <RingType R>
Status ReadRelationInto(ByteReader& r, Relation<R>* rel) {
  uint64_t n = r.GetU64();
  if (!r.ok()) return Status::InvalidArgument("truncated relation header");
  rel->Clear();
  rel->Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t = r.GetTuple();
    typename R::Value v{};
    if (!PayloadSerde<R>::Read(r, &v)) {
      return Status::InvalidArgument("truncated relation entry");
    }
    if (t.size() != rel->schema().size()) {
      return Status::InvalidArgument("relation tuple arity mismatch");
    }
    rel->Apply(t, v);
  }
  return Status::Ok();
}

template <RingType R>
void WriteShardedRelation(ByteWriter& w, const ShardedRelation<R>& rel) {
  // One globally sorted stream across shards: shard membership is a pure
  // function of the key prefix, so loading re-routes every entry to the
  // shard it came from and the dump stays canonical for any shard count.
  w.PutU64(rel.size());
  if (rel.paged()) {
    for (const auto& e : internal::MaterializedSorted<R>(rel)) {
      w.PutTuple(e.key);
      PayloadSerde<R>::Write(w, e.value);
    }
    return;
  }
  std::vector<const typename Relation<R>::Entry*> order;
  order.reserve(rel.size());
  for (size_t s = 0; s < rel.num_shards(); ++s) {
    for (const auto& e : rel.shard(s)) order.push_back(&e);
  }
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return internal::TupleLess(a->key, b->key);
  });
  for (const auto* e : order) {
    w.PutTuple(e->key);
    PayloadSerde<R>::Write(w, e->value);
  }
}

template <RingType R>
Status ReadShardedRelationInto(ByteReader& r, ShardedRelation<R>* rel) {
  uint64_t n = r.GetU64();
  if (!r.ok()) return Status::InvalidArgument("truncated relation header");
  rel->Clear();
  rel->Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t = r.GetTuple();
    typename R::Value v{};
    if (!PayloadSerde<R>::Read(r, &v)) {
      return Status::InvalidArgument("truncated relation entry");
    }
    if (t.size() != rel->schema().size()) {
      return Status::InvalidArgument("relation tuple arity mismatch");
    }
    rel->Apply(t, v);
  }
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Dictionary serde: codes are dense from 0, so the string list in code
// order round-trips exactly (re-interning in order reissues the codes).

inline void WriteDictionary(ByteWriter& w, const Dictionary& dict) {
  w.PutU32(static_cast<uint32_t>(dict.size()));
  for (size_t code = 0; code < dict.size(); ++code) {
    const std::string* s = dict.Lookup(static_cast<Value>(code));
    w.PutString(s == nullptr ? std::string_view() : *s);
  }
}

inline Status ReadDictionary(ByteReader& r, Dictionary* dict) {
  uint32_t n = r.GetU32();
  for (uint32_t i = 0; i < n; ++i) {
    std::string s = r.GetString();
    if (!r.ok()) return Status::InvalidArgument("truncated dictionary");
    // Restoring into an empty (or identically-prefixed) dictionary must
    // reissue the original dense codes, or every interned Value in the
    // restored relations would decode to the wrong string.
    if (static_cast<size_t>(dict->Intern(s)) != i) {
      return Status::InvalidArgument("dictionary code mismatch on load");
    }
  }
  return r.ok() ? Status::Ok()
                : Status::InvalidArgument("truncated dictionary");
}

}  // namespace incr::store

#endif  // INCR_STORE_SERDE_H_
