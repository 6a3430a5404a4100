#include "incr/ivme/kclique.h"

#include <algorithm>

#include "incr/util/check.h"

namespace incr {

KCliqueCounter::KCliqueCounter(int k) : k_(k), edges_(Schema{0, 1}) {
  INCR_CHECK(k == 3 || k == 4);
  edges_.AddIndex(Schema{0});
}

bool KCliqueCounter::HasEdge(Value u, Value v) const {
  return edges_.Contains(Tuple{u, v});
}

int64_t KCliqueCounter::CommonCliques(Value u, Value v) const {
  // Scan the smaller neighborhood, probe against the other endpoint.
  Value scan = u, probe = v;
  std::vector<uint32_t> scan_ids, probe_ids;
  auto ns = Neighbors(scan, &scan_ids);
  auto np = Neighbors(probe, &probe_ids);
  if (ns.empty() || np.empty()) return 0;
  if (ns.size() > np.size()) {
    std::swap(scan, probe);
    std::swap(ns, np);
  }
  std::vector<Value> common;
  common.reserve(ns.size());
  Tuple scratch;
  for (uint32_t id : ns) {
    Value w = edges_.KeyAt(id, &scratch)[1];
    if (w == u || w == v) continue;
    if (HasEdge(probe, w)) common.push_back(w);
  }
  if (k_ == 3) return static_cast<int64_t>(common.size());
  // k=4: count edges inside the common neighborhood.
  int64_t inner_edges = 0;
  for (size_t i = 0; i < common.size(); ++i) {
    for (size_t j = i + 1; j < common.size(); ++j) {
      if (HasEdge(common[i], common[j])) ++inner_edges;
    }
  }
  return inner_edges;
}

bool KCliqueCounter::SetEdge(Value u, Value v, bool present) {
  if (u == v) return false;
  bool has = HasEdge(u, v);
  if (has == present) return false;
  if (present) {
    // Count new cliques through {u,v} BEFORE adding the edge.
    count_ += CommonCliques(u, v);
    edges_.Apply(Tuple{u, v}, 1);
    edges_.Apply(Tuple{v, u}, 1);
  } else {
    edges_.Apply(Tuple{u, v}, -1);
    edges_.Apply(Tuple{v, u}, -1);
    // Count destroyed cliques AFTER removing the edge (same quantity).
    count_ -= CommonCliques(u, v);
  }
  return true;
}

int64_t KCliqueCounter::CountNaive() const {
  // Enumerate ordered vertex tuples u < v < w (< x) with all edges.
  std::vector<Value> vertices;
  const GroupedIndex& adj = edges_.index(0);
  for (size_t g = 0; g < adj.NumGroups(); ++g) {
    vertices.push_back(adj.GroupKey(g)[0]);
  }
  std::sort(vertices.begin(), vertices.end());
  int64_t count = 0;
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (size_t j = i + 1; j < vertices.size(); ++j) {
      if (!HasEdge(vertices[i], vertices[j])) continue;
      for (size_t l = j + 1; l < vertices.size(); ++l) {
        if (!HasEdge(vertices[i], vertices[l]) ||
            !HasEdge(vertices[j], vertices[l])) {
          continue;
        }
        if (k_ == 3) {
          ++count;
          continue;
        }
        for (size_t m = l + 1; m < vertices.size(); ++m) {
          if (HasEdge(vertices[i], vertices[m]) &&
              HasEdge(vertices[j], vertices[m]) &&
              HasEdge(vertices[l], vertices[m])) {
            ++count;
          }
        }
      }
    }
  }
  return count;
}

}  // namespace incr
