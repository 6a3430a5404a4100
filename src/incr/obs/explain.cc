#include "incr/obs/explain.h"

#include <algorithm>
#include <cstdio>

#include "incr/core/view_tree_plan.h"
#include "incr/obs/metrics.h"
#include "incr/query/properties.h"
#include "incr/query/query.h"

namespace incr::obs {

namespace {

// The regime of a plan with O(1) updates and O(1) delay.
constexpr const char* kConstantRegime =
    "O(1) single-tuple update and O(1)-delay enumeration (Thm 4.1)";

std::string NameOf(const std::vector<std::string>& names, int v) {
  if (v >= 0 && static_cast<size_t>(v) < names.size() &&
      !names[static_cast<size_t>(v)].empty()) {
    return names[static_cast<size_t>(v)];
  }
  std::string name = "v";
  name += std::to_string(v);
  return name;
}

std::string KeyString(const std::vector<int>& key,
                      const std::vector<std::string>& names) {
  std::string out = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ",";
    out += NameOf(names, key[i]);
  }
  out += ")";
  return out;
}

std::string YesNo(bool b) { return b ? "yes" : "no"; }

std::string FmtMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FmtFan(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", f);
  return buf;
}

// Left-aligned fixed-width table: one header row + data rows, columns
// padded to their widest cell, two spaces between columns.
std::string RenderTable(const std::vector<std::vector<std::string>>& rows,
                        const std::string& indent) {
  if (rows.empty()) return "";
  std::vector<size_t> width;
  for (const auto& row : rows) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    out += indent;
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) {
        out.append(width[c] - row[c].size() + 2, ' ');
      }
    }
    out += "\n";
  }
  return out;
}

// The per-node cost class: O(1) iff no delta program reaching the node
// contains a partially bound group scan.
std::string CostClass(const ExplainNode& n) {
  if (n.programs == 0) return "-";
  return n.scan_programs == 0 ? "O(1)" : "O(N)";
}

void AppendJsonNode(const ExplainReport& r, const ExplainNode& n,
                    std::string* out) {
  *out += "{\"id\": " + std::to_string(n.id);
  *out += ", \"var\": \"" + JsonEscape(r.VarName(n.var)) + "\"";
  *out += ", \"parent\": " + std::to_string(n.parent);
  *out += std::string(", \"free\": ") + (n.free ? "true" : "false");
  *out += ", \"key\": [";
  for (size_t i = 0; i < n.key.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += '"';
    *out += JsonEscape(r.VarName(n.key[i]));
    *out += '"';
  }
  *out += "], \"atoms\": [";
  for (size_t i = 0; i < n.atoms.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += '"';
    *out += JsonEscape(n.atoms[i]);
    *out += '"';
  }
  *out += "], \"programs\": " + std::to_string(n.programs);
  *out += ", \"scan_programs\": " + std::to_string(n.scan_programs);
  *out += ", \"cost\": \"" + CostClass(n) + "\"";
  if (n.live) {
    *out += ", \"w_size\": " + std::to_string(n.w_size);
    *out += ", \"m_size\": " + std::to_string(n.m_size);
    *out += ", \"batch_calls\": " + std::to_string(n.batch_calls);
    *out += ", \"single_deltas\": " + std::to_string(n.single_deltas);
    *out += ", \"tuples_in\": " + std::to_string(n.tuples_in);
    *out += ", \"tuples_out\": " + std::to_string(n.tuples_out);
    *out += ", \"fan_out\": " + FmtFan(n.FanOut());
    *out += ", \"apply_ns\": " + std::to_string(n.apply_ns);
    *out += ", \"index_probes\": " + std::to_string(n.index_probes);
    *out += ", \"members_scanned\": " + std::to_string(n.members_scanned);
    *out += ", \"indexed_writes\": " + std::to_string(n.indexed_writes);
  }
  *out += "}";
}

}  // namespace

std::string ExplainReport::VarName(int v) const {
  return NameOf(var_names, v);
}

std::string ExplainReport::ToText() const {
  std::string out = analyze ? "EXPLAIN ANALYZE" : "EXPLAIN";
  out += " engine=" + engine + " ring=" + ring + "\n";
  out += "query: " + query + "\n";
  out += "class: hierarchical=" + YesNo(hierarchical) +
         " q-hierarchical=" + YesNo(q_hierarchical) +
         " alpha-acyclic=" + YesNo(alpha_acyclic) +
         " free-connex=" + YesNo(free_connex) + "\n";
  out += "regime: " + regime + "\n";
  out += "threads: " + std::to_string(threads) + "\n";
  for (const std::string& n : notes) out += "note: " + n + "\n";
  for (const ExplainTree& t : trees) {
    out += "tree " + t.label + ": nodes=" + std::to_string(t.nodes.size()) +
           " o1-updates=" + YesNo(t.o1_updates) +
           " o1-delay=" + YesNo(t.o1_delay) +
           " shards=" + std::to_string(t.shards) + " morsel=" +
           (t.morsel_bytes == 0 ? std::string("default")
                                : std::to_string(t.morsel_bytes) + "B");
    out += t.snapshots
               ? " snapshots=on@" + std::to_string(t.published_epoch)
               : " snapshots=off";
    out += "\n";
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header = {"node", "var",   "parent", "free",
                                       "key",  "atoms", "progs",  "scans",
                                       "cost"};
    if (analyze) {
      for (const char* c :
           {"|W|", "|M|", "batches", "singles", "in", "out", "fan", "ms",
            "probes", "scanned", "iwrites"}) {
        header.push_back(c);
      }
    }
    rows.push_back(std::move(header));
    for (const ExplainNode& n : t.nodes) {
      std::vector<std::string> row;
      row.push_back(std::to_string(n.id));
      row.push_back(VarName(n.var));
      row.push_back(n.parent < 0 ? "-" : std::to_string(n.parent));
      row.push_back(YesNo(n.free));
      row.push_back(KeyString(n.key, var_names));
      std::string atoms;
      for (size_t i = 0; i < n.atoms.size(); ++i) {
        if (i > 0) atoms += ",";
        atoms += n.atoms[i];
      }
      row.push_back(atoms.empty() ? "-" : atoms);
      row.push_back(std::to_string(n.programs));
      row.push_back(std::to_string(n.scan_programs));
      row.push_back(CostClass(n));
      if (analyze) {
        row.push_back(std::to_string(n.w_size));
        row.push_back(std::to_string(n.m_size));
        row.push_back(std::to_string(n.batch_calls));
        row.push_back(std::to_string(n.single_deltas));
        row.push_back(std::to_string(n.tuples_in));
        row.push_back(std::to_string(n.tuples_out));
        row.push_back(FmtFan(n.FanOut()));
        row.push_back(FmtMs(n.apply_ns));
        row.push_back(std::to_string(n.index_probes));
        row.push_back(std::to_string(n.members_scanned));
        row.push_back(std::to_string(n.indexed_writes));
      }
      rows.push_back(std::move(row));
    }
    out += RenderTable(rows, "  ");
  }
  if (analyze && totals.present) {
    out += "totals: updates=" + std::to_string(totals.updates) + " (" +
           FmtMs(totals.update_ns) + "ms) batches=" +
           std::to_string(totals.batches) + " deltas=" +
           std::to_string(totals.batch_deltas) + " (" +
           FmtMs(totals.batch_ns) + "ms) node-apply=" +
           FmtMs(totals.node_apply_ns) + "ms\n";
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{\"engine\": \"" + JsonEscape(engine) + "\"";
  out += ", \"ring\": \"" + JsonEscape(ring) + "\"";
  out += ", \"query\": \"" + JsonEscape(query) + "\"";
  out += std::string(", \"analyze\": ") + (analyze ? "true" : "false");
  out += ", \"class\": {\"hierarchical\": ";
  out += hierarchical ? "true" : "false";
  out += ", \"q_hierarchical\": ";
  out += q_hierarchical ? "true" : "false";
  out += ", \"alpha_acyclic\": ";
  out += alpha_acyclic ? "true" : "false";
  out += ", \"free_connex\": ";
  out += free_connex ? "true" : "false";
  out += "}";
  out += ", \"regime\": \"" + JsonEscape(regime) + "\"";
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(notes[i]);
    out += '"';
  }
  out += "], \"trees\": [";
  for (size_t t = 0; t < trees.size(); ++t) {
    const ExplainTree& tree = trees[t];
    if (t > 0) out += ", ";
    out += "{\"label\": \"" + JsonEscape(tree.label) + "\"";
    out += std::string(", \"o1_updates\": ") +
           (tree.o1_updates ? "true" : "false");
    out += std::string(", \"o1_delay\": ") +
           (tree.o1_delay ? "true" : "false");
    out += ", \"shards\": " + std::to_string(tree.shards);
    out += ", \"morsel_bytes\": " + std::to_string(tree.morsel_bytes);
    out += std::string(", \"snapshots\": ") +
           (tree.snapshots ? "true" : "false");
    out += ", \"published_epoch\": " + std::to_string(tree.published_epoch);
    out += ", \"nodes\": [";
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonNode(*this, tree.nodes[i], &out);
    }
    out += "]}";
  }
  out += "]";
  if (totals.present) {
    out += ", \"totals\": {\"updates\": " + std::to_string(totals.updates);
    out += ", \"update_ns\": " + std::to_string(totals.update_ns);
    out += ", \"batches\": " + std::to_string(totals.batches);
    out += ", \"batch_deltas\": " + std::to_string(totals.batch_deltas);
    out += ", \"batch_ns\": " + std::to_string(totals.batch_ns);
    out += ", \"node_apply_ns\": " + std::to_string(totals.node_apply_ns);
    out += "}";
  }
  out += "}";
  return out;
}

std::string RenderQuery(const Query& q,
                        const std::vector<std::string>& names) {
  std::string out = q.name().empty() ? "Q" : q.name();
  auto schema = [&](const Schema& s) {
    std::string t = "(";
    for (size_t i = 0; i < s.size(); ++i) {
      if (i > 0) t += ", ";
      t += NameOf(names, s[i]);
    }
    return t + ")";
  };
  out += schema(q.free());
  out += " = ";
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    if (i > 0) out += " * ";
    out += q.atoms()[i].relation;
    out += schema(q.atoms()[i].schema);
  }
  return out;
}

void ClassifyQuery(const Query& q, ExplainReport* report) {
  report->query = RenderQuery(q, report->var_names);
  report->hierarchical = IsHierarchical(q);
  report->q_hierarchical = IsQHierarchical(q);
  report->alpha_acyclic = IsAlphaAcyclic(q);
  report->free_connex = IsFreeConnex(q);
  if (report->q_hierarchical) {
    report->regime = kConstantRegime;
  } else if (report->hierarchical) {
    report->regime =
        "O(1) single-tuple update on the canonical order; free variables "
        "not ancestor-closed, so enumeration is not constant-delay";
  } else {
    report->regime =
        "not hierarchical: no canonical order exists, some delta programs "
        "fall back to partially bound scans (Thm 4.1 lower bound)";
  }
}

void ClassifyPlan(const ViewTreePlan& plan, ExplainReport* report) {
  ClassifyQuery(plan.query(), report);
  const bool o1_updates = plan.AllProgramsConstantTime();
  const bool o1_delay = plan.CanEnumerate().ok();
  if (o1_updates && o1_delay) {
    report->regime = kConstantRegime;
  } else if (o1_updates) {
    report->regime =
        "O(1) single-tuple update on this order; free variables not "
        "ancestor-closed, so enumeration is not constant-delay";
  } else if (o1_delay) {
    report->regime =
        "O(1)-delay enumeration on this order; some delta programs scan "
        "partially bound groups, so single-tuple updates are not O(1)";
  } else {
    report->regime =
        "some delta programs scan partially bound groups and free variables "
        "are not ancestor-closed on this order: neither O(1) updates nor "
        "constant-delay enumeration";
  }
}

void DescribePlan(const ViewTreePlan& plan, ExplainTree* out) {
  out->o1_updates = plan.AllProgramsConstantTime();
  out->o1_delay = plan.CanEnumerate().ok();
  out->nodes.clear();
  out->nodes.reserve(plan.nodes().size());
  const auto& atoms = plan.query().atoms();
  for (size_t i = 0; i < plan.nodes().size(); ++i) {
    const PlanNode& pn = plan.nodes()[i];
    ExplainNode n;
    n.id = static_cast<int>(i);
    n.parent = pn.parent;
    n.var = static_cast<int>(pn.var);
    n.free = pn.free;
    for (Var v : pn.key) n.key.push_back(static_cast<int>(v));
    for (size_t a : pn.atoms) n.atoms.push_back(atoms[a].relation);
    n.programs = pn.atom_programs.size() + pn.child_programs.size();
    for (const DeltaProgram& p : pn.atom_programs) {
      if (!p.constant_time) ++n.scan_programs;
    }
    for (const DeltaProgram& p : pn.child_programs) {
      if (!p.constant_time) ++n.scan_programs;
    }
    out->nodes.push_back(std::move(n));
  }
}

}  // namespace incr::obs
