// Insert-only maintenance of alpha-acyclic join queries (paper §4.6, [2]):
// amortized O(1) per single-tuple insert and constant-delay enumeration of
// the full join output — a regime where even non-q-hierarchical queries
// (which Thm. 4.1 makes hard under insert+delete) become easy.
//
// Construction: a GYO join tree over the atoms. Each tuple of a node keeps
// a *support counter* = how many of the node's children currently have at
// least one "alive" tuple joining it; a tuple is alive when every child
// supports it. Under inserts these counters are monotone: a (child, key)
// pair activates at most once, and the scan of parent tuples it triggers
// charges each parent tuple at most once per child over its lifetime —
// total work O(#inserts * #atoms), i.e. amortized O(1) per insert.
// Enumeration walks the join tree top-down over alive tuples only, so every
// partial assignment extends to a full output tuple (Yannakakis-style
// calibration) and the delay is constant.
#ifndef INCR_INSERTONLY_INSERT_ONLY_ENGINE_H_
#define INCR_INSERTONLY_INSERT_ONLY_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "incr/data/grouped_index.h"
#include "incr/data/relation.h"
#include "incr/engines/engine.h"
#include "incr/query/query.h"
#include "incr/ring/int_ring.h"
#include "incr/util/status.h"

namespace incr {

class InsertOnlyEngine : public IvmEngine<IntRing> {
 public:
  /// Receives each output tuple over q.AllVars() with its multiplicity.
  using Sink = IvmEngine<IntRing>::Sink;

  /// `q` must be alpha-acyclic with every variable free (a join query).
  static StatusOr<InsertOnlyEngine> Make(const Query& q);

  const Query& query() const { return query_; }

  /// Output tuple schema: q.AllVars().
  const Schema& OutputSchema() const { return all_vars_; }

  /// Inserts `m` > 0 copies of `t` into atom `atom_id`.
  void Insert(size_t atom_id, const Tuple& t, int64_t m = 1);

  /// Inserts into every atom with relation name `rel`.
  void Insert(const std::string& rel, const Tuple& t, int64_t m = 1);

  /// Enumerates the full join output; returns the number of tuples.
  size_t Enumerate(const Sink& sink) const;
  // The const overload above would otherwise hide the instrumented
  // non-const facade inherited from IvmEngine.
  using IvmEngine<IntRing>::Enumerate;

  // IvmEngine: deltas must be inserts (m > 0); deletions are outside this
  // engine's regime (the point of §4.6).
  const char* name() const override { return "insert-only"; }

  /// Total structural work performed by activations so far; the benchmark
  /// divides this by the number of inserts to exhibit the amortized-O(1)
  /// bound.
  int64_t activation_work() const { return activation_work_; }

  size_t NumAliveTuples() const;

 protected:
  void UpdateImpl(const std::string& rel, const Tuple& t,
                  const int64_t& m) override {
    Insert(rel, t, m);
  }

  size_t EnumerateImpl(const Sink& sink) override {
    return static_cast<const InsertOnlyEngine*>(this)->Enumerate(sink);
  }

  void ExplainImpl(obs::ExplainReport* out, bool analyze) override {
    obs::ClassifyQuery(query_, out);
    // Thm. 4.1's dichotomy assumes inserts AND deletes; this engine's whole
    // point is that the insert-only regime is easier, so override the
    // regime line the classifier derived from the general-update story.
    out->regime =
        "insert-only: amortized O(1) per insert and constant-delay "
        "enumeration for any alpha-acyclic join (§4.6)";
    out->notes.push_back("GYO join tree with " +
                         std::to_string(nodes_.size()) +
                         " node(s); support counters are monotone under "
                         "inserts, so activations charge each tuple once");
    if (analyze) {
      out->notes.push_back(
          "activation work=" + std::to_string(activation_work_) +
          ", alive tuples=" + std::to_string(NumAliveTuples()));
    }
  }

 private:
  struct TupleState {
    int64_t payload = 0;
    uint32_t satisfied = 0;  // children with a joining alive tuple
    bool alive = false;
  };

  struct Node {
    size_t atom = 0;          // atom index in the query
    int parent = -1;          // node index
    std::vector<int> children;
    Schema schema;            // atom schema
    Schema parent_key;        // join vars with the parent (empty at root)
    // Every tuple of the node. Inserts only, so entry ids never move: the
    // indexes below hold these ids and readers dereference them here.
    DenseMap<Tuple, TupleState, TupleHash, TupleEq> tuples;
    // Count of alive tuples per parent_key value (consulted by the parent).
    DenseMap<Tuple, int64_t, TupleHash, TupleEq> alive_key_count;
    // Ids of the alive tuples grouped by parent_key (top-down
    // enumeration).
    std::unique_ptr<GroupedIndex> alive_index;
    // Ids of all tuples grouped by the join vars with each child
    // (activation scans), parallel to `children`.
    std::vector<std::unique_ptr<GroupedIndex>> child_probe;
    SmallVector<uint32_t, 4> parent_key_positions;
  };

  InsertOnlyEngine() = default;

  void InsertIntoNode(size_t node_id, const Tuple& t, int64_t m);
  void Activate(size_t node_id, uint32_t id);

  Query query_;
  Schema all_vars_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int64_t activation_work_ = 0;
};

}  // namespace incr

#endif  // INCR_INSERTONLY_INSERT_ONLY_ENGINE_H_
