#include "incr/insertonly/insert_only_engine.h"

#include <deque>
#include <utility>

#include "incr/query/properties.h"
#include "incr/util/check.h"

namespace incr {

StatusOr<InsertOnlyEngine> InsertOnlyEngine::Make(const Query& q) {
  if (!IsAlphaAcyclic(q)) {
    return Status::FailedPrecondition(
        "insert-only engine requires an alpha-acyclic query");
  }
  Schema all = q.AllVars();
  if (q.free().size() != all.size() || !SchemaSubset(all, q.free())) {
    return Status::InvalidArgument(
        "insert-only engine maintains full join queries (all variables "
        "free)");
  }

  // GYO ear decomposition to build the join tree: repeatedly find an atom
  // whose non-exclusive variables are covered by another remaining atom and
  // attach it as that atom's child.
  size_t n = q.atoms().size();
  std::vector<bool> removed(n, false);
  std::vector<int> parent(n, -1);
  size_t remaining = n;
  bool progress = true;
  while (remaining > 1 && progress) {
    progress = false;
    for (size_t i = 0; i < n && remaining > 1; ++i) {
      if (removed[i]) continue;
      // Variables of i shared with other remaining atoms.
      Schema shared;
      for (Var v : q.atoms()[i].schema) {
        for (size_t j = 0; j < n; ++j) {
          if (j != i && !removed[j] &&
              SchemaContains(q.atoms()[j].schema, v)) {
            shared.push_back(v);
            break;
          }
        }
      }
      for (size_t j = 0; j < n; ++j) {
        if (j == i || removed[j]) continue;
        if (SchemaSubset(shared, q.atoms()[j].schema)) {
          parent[i] = static_cast<int>(j);
          removed[i] = true;
          --remaining;
          progress = true;
          break;
        }
      }
    }
  }
  INCR_CHECK(remaining == 1);  // guaranteed by alpha-acyclicity

  InsertOnlyEngine e;
  e.query_ = q;
  e.all_vars_ = all;
  e.nodes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Node& node = e.nodes_[i];
    node.atom = i;
    node.parent = parent[i];
    node.schema = q.atoms()[i].schema;
    if (parent[i] >= 0) {
      e.nodes_[static_cast<size_t>(parent[i])].children.push_back(
          static_cast<int>(i));
      node.parent_key = SchemaIntersect(
          node.schema, q.atoms()[static_cast<size_t>(parent[i])].schema);
    } else {
      e.root_ = static_cast<int>(i);
    }
    node.parent_key_positions =
        ProjectionPositions(node.schema, node.parent_key);
    node.alive_index =
        std::make_unique<GroupedIndex>(node.schema, node.parent_key);
  }
  for (size_t i = 0; i < n; ++i) {
    Node& node = e.nodes_[i];
    for (int c : node.children) {
      Schema key = e.nodes_[static_cast<size_t>(c)].parent_key;
      node.child_probe.push_back(
          std::make_unique<GroupedIndex>(node.schema, key));
    }
  }
  return e;
}

void InsertOnlyEngine::Insert(size_t atom_id, const Tuple& t, int64_t m) {
  INCR_CHECK(m > 0);
  InsertIntoNode(atom_id, t, m);
}

void InsertOnlyEngine::Insert(const std::string& rel, const Tuple& t,
                              int64_t m) {
  bool found = false;
  for (size_t i = 0; i < query_.atoms().size(); ++i) {
    if (query_.atoms()[i].relation == rel) {
      InsertIntoNode(i, t, m);
      found = true;
    }
  }
  INCR_CHECK(found);
}

void InsertOnlyEngine::InsertIntoNode(size_t node_id, const Tuple& t,
                                      int64_t m) {
  Node& node = nodes_[node_id];
  const auto [slot, inserted] = node.tuples.FindOrInsert(t, TupleState{});
  const uint32_t id = node.tuples.EntryOf(slot);
  TupleState& st = node.tuples.ValueAt(id);
  st.payload += m;  // a tuple already present gets only this bump
  if (!inserted) return;
  for (size_t ci = 0; ci < node.children.size(); ++ci) {
    const Node& child = nodes_[static_cast<size_t>(node.children[ci])];
    Tuple key = node.child_probe[ci]->KeyOf(t);
    if (child.alive_key_count.FindSlot(key) != kNoSlot) ++st.satisfied;
    ++activation_work_;
  }
  st.alive = st.satisfied == node.children.size();
  for (auto& probe : node.child_probe) probe->Insert(t, id);
  ++activation_work_;
  if (st.alive) Activate(node_id, id);
}

void InsertOnlyEngine::Activate(size_t node_id, uint32_t id) {
  // Worklist of (node, entry id) to avoid deep recursion on activation
  // cascades.
  std::deque<std::pair<size_t, uint32_t>> work;
  work.emplace_back(node_id, id);
  while (!work.empty()) {
    auto [ni, tid] = work.front();
    work.pop_front();
    Node& node = nodes_[ni];
    const Tuple& tup = node.tuples.KeyAt(tid);
    node.alive_index->Insert(tup, tid);
    ++activation_work_;
    if (node.parent < 0) continue;
    Tuple key = ProjectTuple(tup, node.parent_key_positions);
    const auto [slot, inserted] = node.alive_key_count.FindOrInsert(key, 0);
    ++node.alive_key_count.ValueAt(node.alive_key_count.EntryOf(slot));
    if (!inserted) continue;  // key already supported the parent
    // First alive tuple for this key: bump the parent tuples joining it.
    Node& parent = nodes_[static_cast<size_t>(node.parent)];
    size_t child_slot = 0;
    for (size_t ci = 0; ci < parent.children.size(); ++ci) {
      if (parent.children[ci] == static_cast<int>(ni)) child_slot = ci;
    }
    std::vector<uint32_t> ids;
    for (uint32_t pid : parent.child_probe[child_slot]->Group(key, &ids)) {
      TupleState& ps = parent.tuples.ValueAt(pid);
      ++activation_work_;
      if (ps.alive) continue;
      ++ps.satisfied;
      if (ps.satisfied == parent.children.size()) {
        ps.alive = true;
        work.emplace_back(static_cast<size_t>(node.parent), pid);
      }
    }
  }
}

size_t InsertOnlyEngine::Enumerate(const Sink& sink) const {
  if (root_ < 0) return 0;
  // Top-down walk over alive tuples; assignments over all_vars_. Shared
  // variables between two nodes lie on the path between them (running
  // intersection property), so writing each node's tuple into `assign` and
  // matching children on their parent keys is sound.
  Tuple assign;
  assign.resize(all_vars_.size(), 0);
  size_t count = 0;

  std::vector<SmallVector<uint32_t, 4>> var_pos(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    var_pos[i] = ProjectionPositions(all_vars_, nodes_[i].schema);
  }

  // ResolveChildren(ni, ci, acc, k): choose alive tuples for children
  // ci.. of node ni (whose own tuple is already in `assign`), resolving
  // each chosen child's subtree, then call k with the accumulated payload.
  using Cont = std::function<void(int64_t)>;
  std::function<void(size_t, size_t, int64_t, const Cont&)> resolve =
      [&](size_t ni, size_t child_idx, int64_t acc, const Cont& k) {
        const Node& node = nodes_[ni];
        if (child_idx == node.children.size()) {
          k(acc);
          return;
        }
        size_t ci = static_cast<size_t>(node.children[child_idx]);
        const Node& child = nodes_[ci];
        Tuple key;
        key.reserve(child.parent_key.size());
        for (Var v : child.parent_key) {
          key.push_back(assign[*FindVar(all_vars_, v)]);
        }
        std::vector<uint32_t> ids;
        for (uint32_t id : child.alive_index->Group(key, &ids)) {
          const Tuple& ct = child.tuples.KeyAt(id);
          for (size_t p = 0; p < ct.size(); ++p) {
            assign[var_pos[ci][p]] = ct[p];
          }
          int64_t payload = child.tuples.ValueAt(id).payload;
          resolve(ci, 0, acc * payload, [&](int64_t sub) {
            resolve(ni, child_idx + 1, sub, k);
          });
        }
      };

  const Node& root = nodes_[static_cast<size_t>(root_)];
  std::vector<uint32_t> ids;
  for (uint32_t id : root.alive_index->Group(Tuple{}, &ids)) {
    const Tuple& rt = root.tuples.KeyAt(id);
    for (size_t p = 0; p < rt.size(); ++p) {
      assign[var_pos[static_cast<size_t>(root_)][p]] = rt[p];
    }
    int64_t payload = root.tuples.ValueAt(id).payload;
    resolve(static_cast<size_t>(root_), 0, payload, [&](int64_t acc) {
      if (sink) sink(assign, acc);
      ++count;
    });
  }
  return count;
}

size_t InsertOnlyEngine::NumAliveTuples() const {
  size_t n = 0;
  for (const Node& node : nodes_) n += node.alive_index->NumEntries();
  return n;
}

}  // namespace incr
