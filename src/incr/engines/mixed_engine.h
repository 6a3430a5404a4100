// MixedStaticDynamicEngine<R>: maintenance of a query over a mix of static
// and dynamic relations (paper §4.5, Ex. 4.14).
//
// Lifecycle: construct via Make (which searches for a mixed-tractable
// variable order), LoadStatic/LoadDynamic the initial database, Seal()
// (O(|D|)-style preprocessing: bulk view build), then stream UpdateDynamic.
// Updates to static atoms are rejected with FailedPrecondition.
#ifndef INCR_ENGINES_MIXED_ENGINE_H_
#define INCR_ENGINES_MIXED_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/query/static_dynamic.h"

namespace incr {

template <RingType R>
class MixedStaticDynamicEngine : public IvmEngine<R> {
 public:
  using RV = typename R::Value;
  using typename IvmEngine<R>::Sink;

  static StatusOr<MixedStaticDynamicEngine> Make(
      const Query& q, std::vector<bool> is_static) {
    auto vo = FindMixedOrder(q, is_static);
    if (!vo.ok()) return vo.status();
    auto tree = ViewTree<R>::Make(q, *std::move(vo));
    if (!tree.ok()) return tree.status();
    return MixedStaticDynamicEngine(*std::move(tree), std::move(is_static));
  }

  /// Loads initial tuples (static or dynamic atoms) before Seal().
  void Load(size_t atom_id, const Tuple& t, const RV& m) {
    INCR_CHECK(!sealed_);
    tree_.LoadAtom(atom_id, t, m);
  }

  /// Preprocessing: builds all views bottom-up.
  void Seal() {
    INCR_CHECK(!sealed_);
    tree_.Rebuild();
    sealed_ = true;
  }

  /// Single-tuple update to a dynamic atom; O(1) by construction of the
  /// mixed order. Static atoms are rejected.
  Status UpdateDynamic(size_t atom_id, const Tuple& t, const RV& m) {
    INCR_CHECK(sealed_);
    if (is_static_[atom_id]) {
      return Status::FailedPrecondition(
          "atom is adorned static; updates are not supported in this "
          "maintenance window");
    }
    tree_.UpdateAtom(atom_id, t, m);
    return Status::Ok();
  }

  // IvmEngine: name-routed dynamic updates (updates addressed to a static
  // atom are a caller bug and CHECK-fail; use UpdateDynamic for the
  // Status-returning variant) and enumeration when the mixed plan allows
  // it (aggregate-only plans return 0).
  const char* name() const override { return "mixed-static-dynamic"; }

  void Configure(const EngineOptions& opts) override {
    ApplyObsOptions(opts);
    tree_.SetThreads(opts.threads);
    tree_.SetMorselBytes(opts.morsel_bytes);
    if (opts.snapshot_reads) {
      tree_.EnableSnapshots(opts.max_retained_epochs);
    }
  }


  const ViewTree<R>& tree() const { return tree_; }
  RV Aggregate() const { return tree_.Aggregate(); }

 protected:
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& m) override {
    size_t n = ForEachAtomNamed(tree_.query(), rel, [&](size_t a) {
      Status st = UpdateDynamic(a, t, m);
      INCR_CHECK(st.ok());
    });
    INCR_CHECK(n > 0);
  }

  /// Bulk path: one node-at-a-time traversal for the whole batch (parallel
  /// under SetThreads). Every named delta must address a dynamic atom only.
  void ApplyBatchImpl(typename IvmEngine<R>::Batch batch) override {
    INCR_CHECK(sealed_);
    if (batch.empty()) return;  // an empty call must not publish an epoch
    DeltaBatch<R> merged = MergeNamedBatch(tree_, batch);
    for (size_t a = 0; a < merged.num_atoms(); ++a) {
      INCR_CHECK(merged.of(a).empty() || !is_static_[a]);
    }
    tree_.ApplyBatch(merged);
  }

  size_t EnumerateImpl(const Sink& sink) override {
    if (!tree_.plan().CanEnumerate().ok()) return 0;
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree_); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  size_t EnumerateSnapshotImpl(const Sink& sink) override {
    if (!tree_.snapshots_enabled()) return EnumerateImpl(sink);
    if (!tree_.plan().CanEnumerate().ok()) return 0;
    ViewTreeSnapshot<R> snap = tree_.Snapshot();
    size_t n = 0;
    for (ViewTreeEnumerator<R> it = snap.Enumerate(); it.Valid(); it.Next()) {
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
    // The mixed order only guarantees O(1) on the *dynamic* atoms' paths
    // (§4.5): name which atoms are frozen so a scan on a static path reads
    // as preprocessing cost, not update cost.
    std::string statics;
    for (size_t a = 0; a < is_static_.size(); ++a) {
      if (!is_static_[a]) continue;
      if (!statics.empty()) statics += ",";
      statics += tree_.query().atoms()[a].relation;
    }
    out->notes.push_back(
        "static atoms: " + (statics.empty() ? "(none)" : statics) +
        "; O(1) guarantee covers dynamic-atom delta paths only" +
        (sealed_ ? "" : " (not yet sealed)"));
  }

 private:
  MixedStaticDynamicEngine(ViewTree<R> tree, std::vector<bool> is_static)
      : tree_(std::move(tree)), is_static_(std::move(is_static)) {}

  ViewTree<R> tree_;
  std::vector<bool> is_static_;
  bool sealed_ = false;
};

}  // namespace incr

#endif  // INCR_ENGINES_MIXED_ENGINE_H_
