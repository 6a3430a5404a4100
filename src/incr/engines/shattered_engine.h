// ShatteredEngine<R>: maintenance under small-domain constraints (paper
// §4.4's pointer [5]): variables declared small-domain (constantly many
// values) shatter the query into one residual view tree per assignment of
// the small variables.
//
// For each assignment s (a tuple over the small variables, drawn from the
// cross product of the observed per-variable domains) the engine maintains
// the residual query — the original query with the small variables deleted
// — over the base tuples matching s. Atoms whose schema is entirely small
// degenerate to per-shard scalars, looked up on demand. With a
// q-hierarchical residual every shard gives O(1) updates and delay; an
// update touches at most (domain size)^k shards and a new shard costs one
// O(N) rebuild, amortized into the constants the small-domain assumption
// bounds.
#ifndef INCR_ENGINES_SHATTERED_ENGINE_H_
#define INCR_ENGINES_SHATTERED_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/query/degree_constraints.h"
#include "incr/query/properties.h"

namespace incr {

template <RingType R>
class ShatteredEngine : public IvmEngine<R> {
 public:
  using RV = typename R::Value;
  using typename IvmEngine<R>::Sink;
  /// Receives (small-variable assignment, residual output tuple, payload).
  using ShardSink =
      std::function<void(const Tuple&, const Tuple&, const RV&)>;
  // The atom-addressed Update and the ShardSink Enumerate below would
  // otherwise hide the instrumented name-routed facades.
  using IvmEngine<R>::Update;
  using IvmEngine<R>::Enumerate;

  static StatusOr<ShatteredEngine> Make(const Query& q, Schema small) {
    if (small.empty()) {
      return Status::InvalidArgument("no small-domain variables given");
    }
    if (!IsQHierarchicalUnderSmallDomains(q, small)) {
      return Status::FailedPrecondition(
          "residual query is not q-hierarchical; small domains do not give "
          "the best possible maintenance here");
    }
    ShatteredEngine e;
    e.query_ = q;
    e.small_ = std::move(small);
    e.residual_ = ShatterSmallDomains(q, e.small_);
    e.domains_.resize(e.small_.size());
    for (const Atom& a : q.atoms()) {
      e.base_.push_back(std::make_unique<Relation<R>>(a.schema));
      AtomInfo info;
      for (uint32_t c = 0; c < a.schema.size(); ++c) {
        auto pos = FindVar(e.small_, a.schema[c]);
        if (pos.has_value()) {
          info.small_cols.push_back(c);
          info.small_slots.push_back(*pos);
        } else {
          info.residual_cols.push_back(c);
        }
      }
      info.dropped = info.residual_cols.empty();
      e.atoms_.push_back(std::move(info));
    }
    // Residual atom ids, parallel to the original atoms (dropped = -1).
    int next = 0;
    for (const AtomInfo& info : e.atoms_) {
      e.residual_atom_.push_back(info.dropped ? -1 : next++);
    }
    return e;
  }

  const Query& residual_query() const { return residual_; }
  size_t NumShards() const { return shards_.size(); }

  /// Single-tuple update. Touches every matching shard (constantly many by
  /// the small-domain assumption) and creates newly activated shards.
  void Update(size_t atom_id, const Tuple& t, const RV& m) {
    const AtomInfo& info = atoms_[atom_id];
    // 1. Extend the observed domains; collect brand-new values.
    bool new_value = false;
    for (size_t i = 0; i < info.small_cols.size(); ++i) {
      auto& domain = domains_[info.small_slots[i]];
      if (domain.FindOrInsert(t[info.small_cols[i]], 1).inserted) {
        new_value = true;
      }
    }
    // 2. Materialize newly activated shards from the pre-update base.
    if (new_value) CreateMissingShards();
    // 3. Base first, then every matching shard.
    base_[atom_id]->Apply(t, m);
    for (const auto& entry : shards_) {
      if (!Matches(info, t, entry.key)) continue;
      if (info.dropped) continue;  // scalar factors read the base lazily
      entry.value.tree->UpdateAtom(
          static_cast<size_t>(residual_atom_[atom_id]),
          ProjectTuple(t, info.residual_cols), m);
    }
  }

  /// The scalar factor of shard `assignment`: the product of the dropped
  /// atoms' payloads at that assignment.
  RV ShardScalar(const Tuple& assignment) const {
    RV acc = R::One();
    for (size_t a = 0; a < atoms_.size(); ++a) {
      if (!atoms_[a].dropped) continue;
      Tuple probe;
      for (size_t i = 0; i < atoms_[a].small_cols.size(); ++i) {
        probe.push_back(assignment[atoms_[a].small_slots[i]]);
      }
      acc = R::Mul(acc, base_[a]->Payload(probe));
    }
    return acc;
  }

  /// Full aggregate: SUM over shards of scalar * residual aggregate.
  RV Aggregate() const {
    RV total = R::Zero();
    for (const auto& entry : shards_) {
      total = R::Add(total, R::Mul(ShardScalar(entry.key),
                                   entry.value.tree->Aggregate()));
    }
    return total;
  }

  /// Enumerates every shard's residual output; returns the tuple count.
  size_t Enumerate(const ShardSink& sink) const {
    size_t n = 0;
    for (const auto& entry : shards_) {
      RV scalar = ShardScalar(entry.key);
      if (R::IsZero(scalar)) continue;
      for (ViewTreeEnumerator<R> it(*entry.value.tree); it.Valid();
           it.Next()) {
        if (sink) sink(entry.key, it.tuple(), R::Mul(scalar, it.payload()));
        ++n;
      }
    }
    return n;
  }

  // IvmEngine: name-routed updates and flattened enumeration — each output
  // tuple is the small-variable assignment concatenated with the residual
  // tuple.
  const char* name() const override { return "shattered"; }

 protected:
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const RV& m) override {
    size_t n =
        ForEachAtomNamed(query_, rel, [&](size_t a) { Update(a, t, m); });
    INCR_CHECK(n > 0);
  }

  size_t EnumerateImpl(const Sink& sink) override {
    return Enumerate([&](const Tuple& small, const Tuple& rest,
                         const RV& p) {
      if (sink) sink(ConcatTuple(small, rest), p);
    });
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyQuery(query_, out);
    // Every shard maintains the same residual plan; describe it once and,
    // in analyze mode, fold the per-shard live stats together so the tree
    // reads as "total residual work", not "first shard's work".
    obs::ExplainTree t;
    t.label = "residual";
    bool described = false;
    for (const auto& entry : shards_) {
      if (!described) {
        entry.value.tree->DescribeTo(&t, analyze);
        described = true;
      } else if (analyze) {
        obs::ExplainTree u;
        entry.value.tree->DescribeTo(&u, true);
        for (size_t i = 0; i < t.nodes.size() && i < u.nodes.size(); ++i) {
          t.nodes[i].w_size += u.nodes[i].w_size;
          t.nodes[i].m_size += u.nodes[i].m_size;
          t.nodes[i].batch_calls += u.nodes[i].batch_calls;
          t.nodes[i].single_deltas += u.nodes[i].single_deltas;
          t.nodes[i].tuples_in += u.nodes[i].tuples_in;
          t.nodes[i].tuples_out += u.nodes[i].tuples_out;
          t.nodes[i].apply_ns += u.nodes[i].apply_ns;
        }
      }
    }
    if (!described) {
      // No shard activated yet: compile a throwaway residual tree so the
      // static plan still renders.
      auto tmp = ViewTree<R>::Make(residual_);
      if (tmp.ok()) tmp->DescribeTo(&t, /*analyze=*/false);
    }
    out->trees.push_back(std::move(t));
    out->notes.push_back(
        std::to_string(small_.size()) +
        " small-domain variable(s) shatter the query into " +
        std::to_string(NumShards()) +
        " active residual shard(s); live stats are summed across shards");
  }

 private:
  struct AtomInfo {
    SmallVector<uint32_t, 4> small_cols;     // columns holding small vars
    SmallVector<uint32_t, 4> small_slots;    // their position in small_
    SmallVector<uint32_t, 4> residual_cols;  // the other columns
    bool dropped = false;
  };

  struct Shard {
    std::unique_ptr<ViewTree<R>> tree;
  };

  bool Matches(const AtomInfo& info, const Tuple& t,
               const Tuple& assignment) const {
    for (size_t i = 0; i < info.small_cols.size(); ++i) {
      if (t[info.small_cols[i]] != assignment[info.small_slots[i]]) {
        return false;
      }
    }
    return true;
  }

  void CreateMissingShards() {
    // Cross product of the observed domains; skip existing assignments.
    Tuple assignment;
    assignment.resize(small_.size(), 0);
    BuildShardsRec(0, &assignment);
  }

  void BuildShardsRec(size_t i, Tuple* assignment) {
    if (i == small_.size()) {
      const auto [slot, inserted] = shards_.FindOrInsert(*assignment, Shard{});
      if (!inserted) return;
      auto tree_or = ViewTree<R>::Make(residual_);
      INCR_CHECK(tree_or.ok());
      auto tree = std::make_unique<ViewTree<R>>(*std::move(tree_or));
      // Load the matching base tuples and rebuild bottom-up.
      for (size_t a = 0; a < atoms_.size(); ++a) {
        if (atoms_[a].dropped) continue;
        for (const auto& e : *base_[a]) {
          if (Matches(atoms_[a], e.key, *assignment)) {
            tree->LoadAtom(static_cast<size_t>(residual_atom_[a]),
                           ProjectTuple(e.key, atoms_[a].residual_cols),
                           e.value);
          }
        }
      }
      tree->Rebuild();
      shards_.ValueAt(shards_.EntryOf(slot)).tree = std::move(tree);
      return;
    }
    for (const auto& v : domains_[i]) {
      (*assignment)[i] = v.key;
      BuildShardsRec(i + 1, assignment);
    }
  }

  Query query_;
  Schema small_;
  Query residual_;
  std::vector<std::unique_ptr<Relation<R>>> base_;
  std::vector<AtomInfo> atoms_;
  std::vector<int> residual_atom_;
  std::vector<DenseMap<Value, char>> domains_;  // per small variable
  DenseMap<Tuple, Shard, TupleHash, TupleEq> shards_;
};

}  // namespace incr

#endif  // INCR_ENGINES_SHATTERED_ENGINE_H_
