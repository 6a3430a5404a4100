// k-clique counting under updates (paper §3.3's pointer [10]: Dhulipala,
// Liu, Shun, Yu — parallel batch-dynamic k-clique counting; here the
// sequential dynamic counters for k = 3, 4 on an undirected graph).
//
// The graph is a single undirected edge relation (edges stored both ways).
// On an edge update {u,v}, the count delta is the number of (k-2)-cliques
// in the common neighborhood of u and v:
//   k=3: |N(u) ∩ N(v)|                       — O(min deg) per update
//   k=4: #edges inside N(u) ∩ N(v)           — O(min deg^2) worst case
// Exact under arbitrary insert/delete interleavings; multiplicity-free
// (an edge is present or absent — multigraph cliques are not defined).
#ifndef INCR_IVME_KCLIQUE_H_
#define INCR_IVME_KCLIQUE_H_

#include <cstdint>
#include <vector>

#include "incr/data/relation.h"
#include "incr/data/tuple.h"
#include "incr/ring/int_ring.h"
#include "incr/util/status.h"

namespace incr {

class KCliqueCounter {
 public:
  /// `k` in {3, 4}.
  explicit KCliqueCounter(int k);

  /// Inserts (present=true) or deletes the undirected edge {u, v}.
  /// Self-loops are ignored; inserting a present edge (or deleting an
  /// absent one) is a no-op returning false.
  bool SetEdge(Value u, Value v, bool present);

  bool HasEdge(Value u, Value v) const;

  /// The number of k-cliques in the current graph. O(1).
  int64_t Count() const { return count_; }

  size_t NumEdges() const { return edges_.size() / 2; }

  /// Recomputes the count from scratch (test oracle). O(n * deg^k).
  int64_t CountNaive() const;

 private:
  /// Entry ids of the edges (u, w) of `edges_`: u's neighbors, through
  /// the grouped index on the first column.
  GroupView Neighbors(Value u, std::vector<uint32_t>* scratch) const {
    return edges_.index(0).Group(Tuple{u}, scratch);
  }

  /// Number of (k-2)-cliques in N(u) ∩ N(v), excluding u and v.
  int64_t CommonCliques(Value u, Value v) const;

  int k_;
  int64_t count_ = 0;
  // Both orientations, payload 1, grouped by the first column: the
  // adjacency lists are the index's id groups over these entries.
  Relation<IntRing> edges_;
};

}  // namespace incr

#endif  // INCR_IVME_KCLIQUE_H_
