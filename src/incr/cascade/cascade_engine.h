// CascadeEngine<R>: maintenance of a pair {Q1, Q2} where Q2 is
// q-hierarchical and Q1 rewrites over Q2's output (paper §4.2, Ex. 4.5,
// Fig. 5).
//
// Q2 is maintained by its own view tree (O(1)/update). Q1's rewriting
// Q1' = V_Q2 * (uncovered atoms) is maintained by a second view tree whose
// first atom is the materialized view V_Q2. V_Q2 is synchronized *lazily,
// during Q2's enumeration* (the piggybacking of the paper): each enumerated
// Q2 tuple is diffed against the stored copy and the delta is propagated
// into Q1''s tree; tuples that disappeared from Q2's output are found by an
// epoch mark-and-sweep whose cost is amortized against the enumeration
// itself. Updates to Q1's uncovered atoms propagate immediately.
//
// Consequently (paper conditions (i)+(ii)): enumerating Q2 and then Q1
// gives both outputs with amortized constant update time and constant
// delay. Enumerating Q1 without having enumerated Q2 first is still
// correct here — the engine syncs on demand — but the sync cost is then
// borne by the Q1 request.
#ifndef INCR_CASCADE_CASCADE_ENGINE_H_
#define INCR_CASCADE_CASCADE_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/query/properties.h"
#include "incr/query/rewriting.h"

namespace incr {

template <RingType R>
class CascadeEngine : public IvmEngine<R> {
 public:
  using RV = typename R::Value;
  using typename IvmEngine<R>::Sink;

  static StatusOr<CascadeEngine> Make(const Query& q1, const Query& q2) {
    if (!IsQHierarchical(q2)) {
      return Status::FailedPrecondition("q2 is not q-hierarchical");
    }
    auto tree2 = ViewTree<R>::Make(q2);
    if (!tree2.ok()) return tree2.status();
    auto rw = FindViewRewriting(q1, q2, kViewName, tree2->OutputSchema());
    if (!rw.ok()) return rw.status();
    auto tree1 = ViewTree<R>::Make(rw->rewritten);
    if (!tree1.ok()) return tree1.status();
    Status st = tree1->plan().CanEnumerate();
    if (!st.ok()) return st;
    return CascadeEngine(*std::move(tree1), *std::move(tree2),
                         *std::move(rw));
  }

  const Query& q2() const { return tree2_.query(); }
  const Query& rewritten_q1() const { return tree1_.query(); }

  /// True when the rewriting restored the best possible maintenance for Q1
  /// (the paper's premise in Ex. 4.5).
  bool RewrittenIsQHierarchical() const {
    return IsQHierarchical(tree1_.query());
  }

  // IvmEngine: Enumerate() yields Q1's output (the cascade's final answer);
  // EnumerateQ2 below gives the intermediate Q2 view.
  const char* name() const override { return "cascade"; }

  /// Enumerates Q2's output (constant delay) and piggybacks the V_Q2 sync.
  size_t EnumerateQ2(const Sink& sink) {
    ++epoch_;
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree2_); it.Valid(); it.Next()) {
      Tuple t = it.tuple();
      RV p = it.payload();
      Entry& entry = vq2_.ValueAt(
          vq2_.EntryOf(vq2_.FindOrInsert(t, Entry{R::Zero(), 0}).slot));
      if (!(R::IsZero(R::Add(p, R::Neg(entry.payload))))) {
        tree1_.UpdateAtom(0, t, R::Add(p, R::Neg(entry.payload)));
        entry.payload = p;
      }
      entry.epoch = epoch_;
      if (sink) sink(t, p);
      ++n;
    }
    // Sweep tuples that left Q2's output (amortized against the size of the
    // previous enumeration).
    std::vector<std::pair<Tuple, RV>> stale;
    for (const auto& e : vq2_) {
      if (e.value.epoch != epoch_) stale.emplace_back(e.key, e.value.payload);
    }
    for (const auto& [t, payload] : stale) {
      tree1_.UpdateAtom(0, t, R::Neg(payload));
      vq2_.Erase(t);
    }
    dirty_ = false;
    return n;
  }

  /// Enumerates Q1's output. Constant delay when Q2 was enumerated after
  /// the last update (condition (ii) of §4.2); otherwise the deferred sync
  /// runs first.
  size_t EnumerateQ1(const Sink& sink) {
    if (dirty_) EnumerateQ2(nullptr);
    size_t n = 0;
    for (ViewTreeEnumerator<R> it(tree1_); it.Valid(); it.Next()) {
      if (sink) sink(it.tuple(), it.payload());
      ++n;
    }
    return n;
  }

  /// Output schemas (free variables in enumeration order).
  Schema OutputSchemaQ1() const { return tree1_.OutputSchema(); }
  Schema OutputSchemaQ2() const { return tree2_.OutputSchema(); }

 protected:
  size_t EnumerateImpl(const Sink& sink) override { return EnumerateQ1(sink); }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    // The cascade's answer is Q1; its maintenance story is the rewriting
    // Q1' = V_Q2 * (uncovered atoms), so classify what we actually run.
    obs::ClassifyQuery(tree1_.query(), out);
    DescribeTreeForExplain(tree1_, "Q1-rewritten", out, analyze);
    DescribeTreeForExplain(tree2_, "Q2", out, analyze);
    out->notes.push_back(
        std::string("rewritten Q1 over view ") + kViewName + " is " +
        (RewrittenIsQHierarchical() ? "" : "NOT ") +
        "q-hierarchical; V_Q2 holds " + std::to_string(vq2_.size()) +
        " tuple(s), synced lazily during Q2 enumeration (" +
        (dirty_ ? "sync pending" : "in sync") + ")");
  }

  /// Routes a single-tuple delta to Q2's tree and/or Q1''s uncovered atoms.
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& m) override {
    bool found = false;
    for (const Atom& a : tree2_.query().atoms()) {
      if (a.relation == rel) {
        tree2_.Update(rel, t, m);
        dirty_ = true;
        found = true;
        break;
      }
    }
    for (size_t a = 0; a < tree1_.query().atoms().size(); ++a) {
      if (tree1_.query().atoms()[a].relation == rel) {
        tree1_.UpdateAtom(a, t, m);
        found = true;
      }
    }
    INCR_CHECK(found);
  }

 private:
  static constexpr const char* kViewName = "__VQ2";

  struct Entry {
    RV payload;
    uint64_t epoch;
  };

  CascadeEngine(ViewTree<R> tree1, ViewTree<R> tree2, ViewRewriting rw)
      : tree1_(std::move(tree1)), tree2_(std::move(tree2)),
        rw_(std::move(rw)) {}

  ViewTree<R> tree1_;  // over the rewritten Q1 (atom 0 is V_Q2)
  ViewTree<R> tree2_;  // over Q2
  ViewRewriting rw_;
  DenseMap<Tuple, Entry, TupleHash, TupleEq> vq2_;
  uint64_t epoch_ = 0;
  bool dirty_ = true;
};

}  // namespace incr

#endif  // INCR_CASCADE_CASCADE_ENGINE_H_
