// The four IVM strategies compared in paper §4.1 (Fig. 4), all built over
// the same (best) view tree, differing along two axes:
//
//   eager vs lazy:  propagate updates through the view tree immediately, or
//                   buffer them and only touch base relations until an
//                   enumeration request arrives;
//   fact vs list:   keep the query output factorized over the views, or
//                   materialize it as a flat list of tuples.
//
//   EagerFactStrategy  (F-IVM):      O(1)/update for q-hierarchical,
//                                    constant-delay factorized enumeration.
//   EagerListStrategy  (DBToaster):  every update also refreshes a
//                                    materialized output list via delta
//                                    enumeration — pays O(|affected output|)
//                                    per update.
//   LazyFactStrategy   (hybrid):     updates are buffered; an enumeration
//                                    request flushes them through the view
//                                    tree, then enumerates factorized.
//   LazyListStrategy   (delta-style recompute): only base relations are
//                                    maintained; an enumeration request
//                                    rebuilds the output from scratch.
//
// All four implement the unified IvmEngine<R> interface (engine.h) and
// additionally expose the atom-id addressed Update/ApplyBatch that the
// benches drive directly. Batches take the node-at-a-time bulk path where
// the strategy semantics allow it (eager-fact, lazy-*).
#ifndef INCR_ENGINES_STRATEGIES_H_
#define INCR_ENGINES_STRATEGIES_H_

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/ring/ring.h"

namespace incr {

/// Common interface of the Fig. 4 strategies: IvmEngine plus atom-id
/// addressed updates and batches (the internal currency of the benches).
template <RingType R>
class IvmStrategy : public IvmEngine<R> {
 public:
  using RV = typename R::Value;
  using typename IvmEngine<R>::Sink;
  using AtomBatch = std::span<const AtomDelta<R>>;
  // Keep the instrumented name-routed facade visible next to the
  // atom-addressed overloads declared below.
  using IvmEngine<R>::Update;
  using IvmEngine<R>::ApplyBatch;

  /// The query the strategy maintains (used for name -> atom routing).
  virtual const Query& query() const = 0;

  /// Applies a single-tuple delta to an atom's relation. This is the
  /// benches' hot path and is deliberately not wrapped by the facade —
  /// benches time it themselves.
  virtual void Update(size_t atom_id, const Tuple& t, const RV& m) = 0;

  /// Applies a batch of atom-addressed deltas. Default: per-tuple loop;
  /// strategies with a bulk path override.
  virtual void ApplyBatch(AtomBatch batch) {
    for (const AtomDelta<R>& e : batch) Update(e.atom, e.tuple, e.delta);
  }

 protected:
  // IvmEngine implementation: route relation names to atom occurrences.
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& m) override {
    size_t n =
        ForEachAtomNamed(query(), rel, [&](size_t a) { Update(a, t, m); });
    INCR_CHECK(n > 0);
  }

  void ApplyBatchImpl(typename IvmEngine<R>::Batch batch) override {
    std::vector<AtomDelta<R>> resolved;
    resolved.reserve(batch.size());
    for (const Delta<R>& e : batch) {
      size_t n = ForEachAtomNamed(query(), e.relation, [&](size_t a) {
        resolved.push_back({a, e.tuple, e.delta});
      });
      INCR_CHECK(n > 0);
    }
    ApplyBatch(AtomBatch(resolved));
  }
};

/// F-IVM: eager propagation, factorized output. Batches take the
/// node-at-a-time path through the view tree.
template <RingType R>
class EagerFactStrategy : public IvmStrategy<R> {
 public:
  using RV = typename R::Value;
  using typename IvmStrategy<R>::Sink;
  using typename IvmStrategy<R>::AtomBatch;
  using IvmStrategy<R>::Update;
  using IvmStrategy<R>::ApplyBatch;

  explicit EagerFactStrategy(ViewTree<R> tree) : tree_(std::move(tree)) {
    INCR_CHECK(tree_.plan().CanEnumerate().ok());
  }

  EagerFactStrategy(ViewTree<R> tree, const EngineOptions& opts)
      : EagerFactStrategy(std::move(tree)) {
    Configure(opts);
  }

  const Query& query() const override { return tree_.query(); }

  void Update(size_t atom_id, const Tuple& t, const RV& m) override {
    tree_.UpdateAtom(atom_id, t, m);
  }

  void ApplyBatch(AtomBatch batch) override { tree_.ApplyBatch(batch); }

  void Configure(const EngineOptions& opts) override {
    ApplyObsOptions(opts);
    tree_.SetThreads(opts.threads);
    tree_.SetMorselBytes(opts.morsel_bytes);
  }


  Status DumpState(store::ByteWriter& w) override {
    tree_.DumpState(w);
    return Status::Ok();
  }

  Status LoadState(store::ByteReader& r) override {
    return tree_.LoadState(r);
  }

  const char* name() const override { return "eager-fact"; }

  const ViewTree<R>& tree() const { return tree_; }

 protected:
  size_t EnumerateImpl(const Sink& sink) override {
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree_); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyPlan(tree_.plan(), out);
    out->threads =
        tree_.pool() != nullptr ? tree_.pool()->num_threads() : 1;
    DescribeTreeForExplain(tree_, this->name(), out, analyze);
  }

 private:
  ViewTree<R> tree_;
};

/// DBToaster-style: eager propagation plus a materialized output list,
/// refreshed per update by enumerating the affected output tuples (those
/// agreeing with the update on the atom's free variables) before and after
/// the propagation. Batches stay per-tuple: the output list must observe
/// every intermediate output state, so there is no bulk shortcut.
template <RingType R>
class EagerListStrategy : public IvmStrategy<R> {
 public:
  using RV = typename R::Value;
  using typename IvmStrategy<R>::Sink;
  using IvmStrategy<R>::Update;
  using IvmStrategy<R>::ApplyBatch;

  explicit EagerListStrategy(ViewTree<R> tree)
      : tree_(std::move(tree)), out_(tree_.OutputSchema()) {
    INCR_CHECK(tree_.plan().CanEnumerate().ok());
  }

  EagerListStrategy(ViewTree<R> tree, const EngineOptions& opts)
      : EagerListStrategy(std::move(tree)) {
    this->Configure(opts);
  }

  const Query& query() const override { return tree_.query(); }

  // The materialized output list is part of the dynamic state: it is
  // maintained per update, not derivable in dump order from the tree.
  Status DumpState(store::ByteWriter& w) override {
    tree_.DumpState(w);
    store::WriteRelation(w, out_);
    return Status::Ok();
  }

  Status LoadState(store::ByteReader& r) override {
    Status st = tree_.LoadState(r);
    if (!st.ok()) return st;
    return store::ReadRelationInto(r, &out_);
  }

  void Update(size_t atom_id, const Tuple& t, const RV& m) override {
    tree_.UpdateAtomWithDeltaEnum(
        atom_id, t, m,
        [&](const Tuple& out, const RV& before, const RV& now) {
          out_.Apply(out, R::Add(now, R::Neg(before)));
        });
  }

  const char* name() const override { return "eager-list"; }

  const Relation<R>& output() const { return out_; }

 protected:
  size_t EnumerateImpl(const Sink& sink) override {
    if (sink) {
      for (const auto& e : out_) sink(e.key, e.value);
    }
    return out_.size();
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyPlan(tree_.plan(), out);
    out->threads =
        tree_.pool() != nullptr ? tree_.pool()->num_threads() : 1;
    DescribeTreeForExplain(tree_, this->name(), out, analyze);
    out->notes.push_back(
        "materialized output list of " + std::to_string(out_.size()) +
        " tuples; every update pays O(|affected output|) to refresh it");
  }

 private:
  static_assert(R::kHasNegation,
                "eager-list needs additive inverses to retract old output");
  ViewTree<R> tree_;
  Relation<R> out_;
};

/// Hybrid of F-IVM and delta queries: buffer updates, flush through the
/// view tree on demand, enumerate factorized. The flush itself is one
/// node-at-a-time batch.
template <RingType R>
class LazyFactStrategy : public IvmStrategy<R> {
 public:
  using RV = typename R::Value;
  using typename IvmStrategy<R>::Sink;
  using typename IvmStrategy<R>::AtomBatch;
  using IvmStrategy<R>::Update;
  using IvmStrategy<R>::ApplyBatch;

  explicit LazyFactStrategy(ViewTree<R> tree) : tree_(std::move(tree)) {
    INCR_CHECK(tree_.plan().CanEnumerate().ok());
  }

  LazyFactStrategy(ViewTree<R> tree, const EngineOptions& opts)
      : LazyFactStrategy(std::move(tree)) {
    Configure(opts);
  }

  const Query& query() const override { return tree_.query(); }

  void Update(size_t atom_id, const Tuple& t, const RV& m) override {
    buffer_.Add(atom_id, t, m);
  }

  void ApplyBatch(AtomBatch batch) override { buffer_.AddAll(batch); }

  void Configure(const EngineOptions& opts) override {
    ApplyObsOptions(opts);
    tree_.SetThreads(opts.threads);
    tree_.SetMorselBytes(opts.morsel_bytes);
  }


  // Dumping flushes the buffer first: a snapshot must capture the effect of
  // every logged update, and buffered deltas have no stable on-disk shape
  // of their own (this is also why DumpState is non-const API-wide).
  Status DumpState(store::ByteWriter& w) override {
    tree_.ApplyBatch(buffer_);
    buffer_.Clear();
    tree_.DumpState(w);
    return Status::Ok();
  }

  Status LoadState(store::ByteReader& r) override {
    buffer_.Clear();
    return tree_.LoadState(r);
  }

  const char* name() const override { return "lazy-fact"; }

 protected:
  size_t EnumerateImpl(const Sink& sink) override {
    tree_.ApplyBatch(buffer_);
    buffer_.Clear();
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree_); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyPlan(tree_.plan(), out);
    out->threads =
        tree_.pool() != nullptr ? tree_.pool()->num_threads() : 1;
    DescribeTreeForExplain(tree_, this->name(), out, analyze);
    out->notes.push_back("updates buffer until enumeration; " +
                         std::to_string(buffer_.size()) +
                         " deltas pending flush");
  }

 private:
  ViewTree<R> tree_;
  DeltaBatch<R> buffer_;
};

/// Delta-query recomputation: maintain only the base relations (O(1) per
/// update); rebuild the full output from scratch (fresh view tree + list
/// materialization) on every enumeration request.
template <RingType R>
class LazyListStrategy : public IvmStrategy<R> {
 public:
  using RV = typename R::Value;
  using typename IvmStrategy<R>::Sink;
  using typename IvmStrategy<R>::AtomBatch;
  using IvmStrategy<R>::Update;
  using IvmStrategy<R>::ApplyBatch;

  explicit LazyListStrategy(ViewTree<R> tree) : tree_(std::move(tree)) {
    INCR_CHECK(tree_.plan().CanEnumerate().ok());
  }

  LazyListStrategy(ViewTree<R> tree, const EngineOptions& opts)
      : LazyListStrategy(std::move(tree)) {
    Configure(opts);
  }

  const Query& query() const override { return tree_.query(); }

  void Update(size_t atom_id, const Tuple& t, const RV& m) override {
    tree_.LoadAtom(atom_id, t, m);  // base relation only, no propagation
  }

  void Configure(const EngineOptions& opts) override {
    ApplyObsOptions(opts);
    tree_.SetThreads(opts.threads);
    tree_.SetMorselBytes(opts.morsel_bytes);
  }


  Status DumpState(store::ByteWriter& w) override {
    tree_.DumpState(w);
    return Status::Ok();
  }

  Status LoadState(store::ByteReader& r) override {
    return tree_.LoadState(r);
  }

  const char* name() const override { return "lazy-list"; }

 protected:
  size_t EnumerateImpl(const Sink& sink) override {
    tree_.Rebuild();
    size_t n = 0;
    std::vector<std::pair<Tuple, RV>> list;
    for (ViewTreeEnumerator<R> it(tree_); it.Valid(); it.Next()) {
      list.emplace_back(it.tuple(), it.payload());  // materialize the list
      ++n;
    }
    if (sink) {
      for (const auto& [t, p] : list) sink(t, p);
    }
    return n;
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyPlan(tree_.plan(), out);
    out->threads =
        tree_.pool() != nullptr ? tree_.pool()->num_threads() : 1;
    DescribeTreeForExplain(tree_, this->name(), out, analyze);
    out->notes.push_back(
        "base relations only; every enumeration rebuilds the output from "
        "scratch");
  }

 private:
  ViewTree<R> tree_;
};

/// Builds all four strategies over the same view tree (the canonical order
/// when `vo` is null).
template <RingType R>
std::vector<std::unique_ptr<IvmStrategy<R>>> MakeAllStrategies(
    const Query& q, const VariableOrder* vo = nullptr) {
  std::vector<std::unique_ptr<IvmStrategy<R>>> out;
  auto make_tree = [&] {
    auto t = vo == nullptr ? ViewTree<R>::Make(q) : ViewTree<R>::Make(q, *vo);
    INCR_CHECK(t.ok());
    return *std::move(t);
  };
  out.push_back(std::make_unique<EagerListStrategy<R>>(make_tree()));
  out.push_back(std::make_unique<EagerFactStrategy<R>>(make_tree()));
  out.push_back(std::make_unique<LazyListStrategy<R>>(make_tree()));
  out.push_back(std::make_unique<LazyFactStrategy<R>>(make_tree()));
  return out;
}

}  // namespace incr

#endif  // INCR_ENGINES_STRATEGIES_H_
