#include "incr/check/qgen.h"

#include <algorithm>
#include <utility>

#include "incr/core/view_tree_plan.h"
#include "incr/query/properties.h"
#include "incr/util/check.h"

namespace incr {
namespace check {

namespace {

// Variable names A, B, ..., Z, V26, V27, ... — readable in repro files and
// stable across platforms.
std::string VarName(size_t i) {
  if (i < 26) return std::string(1, static_cast<char>('A' + i));
  // Built via append: operator+(const char*, string&&) trips a GCC 12
  // -Wrestrict false positive when inlined at -O2 (PR105329).
  std::string name = "V";
  name += std::to_string(i);
  return name;
}

struct ShapeAtoms {
  std::vector<Schema> schemas;  // one per atom, over dense var indexes
  std::string tag;
};

// Chain: R0(X0,X1), R1(X1,X2), ... — acyclic, hierarchical only for n <= 1.
ShapeAtoms MakeChain(Rng& rng, size_t n) {
  ShapeAtoms s;
  s.tag = "chain";
  for (size_t i = 0; i < n; ++i) {
    s.schemas.push_back(Schema{static_cast<Var>(i), static_cast<Var>(i + 1)});
  }
  (void)rng;
  return s;
}

// Star: R0(X0,X1), R1(X0,X2), ... — hierarchical; q-hierarchical iff the
// center is free whenever any leaf is.
ShapeAtoms MakeStar(Rng& rng, size_t n) {
  ShapeAtoms s;
  s.tag = "star";
  for (size_t i = 0; i < n; ++i) {
    s.schemas.push_back(Schema{0, static_cast<Var>(i + 1)});
  }
  (void)rng;
  return s;
}

// Cycle: R0(X0,X1), R1(X1,X2), ..., R_{n-1}(X_{n-1},X0) — not acyclic; the
// n = 3 case is the paper's triangle query.
ShapeAtoms MakeCycle(Rng& rng, size_t n) {
  ShapeAtoms s;
  s.tag = "cycle";
  for (size_t i = 0; i < n; ++i) {
    s.schemas.push_back(
        Schema{static_cast<Var>(i), static_cast<Var>((i + 1) % n)});
  }
  (void)rng;
  return s;
}

// Hierarchical staircase: each atom either extends the previous atom's
// schema by a fresh variable (deepening one branch) or restarts from a
// prefix (opening a sibling branch) — by construction atoms(X) masks form a
// laminar family, so the query is hierarchical.
ShapeAtoms MakeHier(Rng& rng, size_t n) {
  ShapeAtoms s;
  s.tag = "hier";
  Var next = 1;
  Schema cur{0};
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.Chance(0.4)) {
      // Sibling branch: keep a random prefix, then a fresh variable.
      size_t keep = 1 + rng.Uniform(cur.size());
      Schema prefix;
      for (size_t k = 0; k < keep; ++k) prefix.push_back(cur[k]);
      cur = prefix;
    }
    cur.push_back(next++);
    s.schemas.push_back(cur);
  }
  return s;
}

}  // namespace

size_t GenQuery::ArityOf(const std::string& rel) const {
  for (const Atom& a : query.atoms()) {
    if (a.relation == rel) return a.schema.size();
  }
  INCR_CHECK(false);
  return 0;
}

StatusOr<VariableOrder> EnumerableOrderFor(const Query& q) {
  // The rule now lives in core/view_tree_plan.h so the SQL compiler and the
  // server share it; this wrapper keeps the harness's historical spelling.
  return incr::EnumerableOrderFor(q);
}

std::string RenderQueryText(const Query& q, const VarRegistry& vars) {
  auto var_list = [&](const Schema& s) {
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      if (i > 0) out += ", ";
      out += vars.Name(s[i]);
    }
    return out;
  };
  std::string out = q.name() + "(" + var_list(q.free()) + ") = ";
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    if (i > 0) out += ", ";
    out += q.atoms()[i].relation + "(" + var_list(q.atoms()[i].schema) + ")";
  }
  return out;
}

std::string RenderQuerySql(const Query& q, const VarRegistry& vars) {
  std::string out;
  // DDL: one CREATE TABLE per distinct relation, positional column names.
  std::vector<std::string> seen;
  for (const Atom& a : q.atoms()) {
    if (std::find(seen.begin(), seen.end(), a.relation) != seen.end()) {
      continue;
    }
    seen.push_back(a.relation);
    out += "CREATE TABLE " + a.relation + " (";
    for (size_t c = 0; c < a.schema.size(); ++c) {
      if (c > 0) out += ", ";
      out += "c" + std::to_string(c);
    }
    out += ");\n";
  }
  // First occurrence (atom, column) of each variable, for SELECT/GROUP BY
  // references and as the anchor of the WHERE equality chains.
  auto first_of = [&](Var v) -> std::string {
    for (size_t i = 0; i < q.atoms().size(); ++i) {
      auto pos = FindVar(q.atoms()[i].schema, v);
      if (pos.has_value()) {
        std::string ref = "t";
        ref += std::to_string(i);
        ref += ".c";
        ref += std::to_string(*pos);
        return ref;
      }
    }
    INCR_CHECK(false);
    return "";
  };
  out += "SELECT ";
  for (Var v : q.free()) {
    out += first_of(v) + " AS " + vars.Name(v) + ", ";
  }
  out += "COUNT(*) FROM ";
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    if (i > 0) out += ", ";
    out += q.atoms()[i].relation + " AS t" + std::to_string(i);
  }
  // Equality chain per shared variable: first occurrence = each later one.
  std::string preds;
  for (Var v : q.AllVars()) {
    std::string anchor;
    for (size_t i = 0; i < q.atoms().size(); ++i) {
      auto pos = FindVar(q.atoms()[i].schema, v);
      if (!pos.has_value()) continue;
      std::string ref = "t";
      ref += std::to_string(i);
      ref += ".c";
      ref += std::to_string(*pos);
      if (anchor.empty()) {
        anchor = ref;
      } else {
        if (!preds.empty()) preds += " AND ";
        preds += anchor + " = " + ref;
      }
    }
  }
  if (!preds.empty()) out += " WHERE " + preds;
  if (!q.free().empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < q.free().size(); ++i) {
      if (i > 0) out += ", ";
      out += first_of(q.free()[i]);
    }
  }
  out += ";";
  return out;
}

Status FinalizeGenQuery(GenQuery* gq) {
  const Query& q = gq->query;
  if (q.atoms().empty()) {
    return Status::InvalidArgument("query has no atoms");
  }
  auto vo = incr::EnumerableOrderFor(q);
  if (!vo.ok()) return vo.status();
  gq->vo = *std::move(vo);
  gq->relations.clear();
  for (const Atom& a : q.atoms()) {
    if (std::find(gq->relations.begin(), gq->relations.end(), a.relation) ==
        gq->relations.end()) {
      gq->relations.push_back(a.relation);
    }
  }
  gq->text = RenderQueryText(q, gq->vars);
  gq->sql_text = RenderQuerySql(q, gq->vars);
  gq->hierarchical = IsHierarchical(q);
  gq->q_hierarchical = IsQHierarchical(q);
  gq->acyclic = IsAlphaAcyclic(q);
  gq->free_connex = IsFreeConnex(q);
  return Status::Ok();
}

GenQuery GenerateQuery(Rng& rng, const QGenOptions& opts) {
  const size_t max_atoms = std::max<size_t>(3, opts.max_atoms);
  ShapeAtoms shape;
  switch (rng.Uniform(4)) {
    case 0:
      shape = MakeChain(rng, 1 + rng.Uniform(max_atoms));
      break;
    case 1:
      shape = MakeStar(rng, 1 + rng.Uniform(max_atoms));
      break;
    case 2:
      shape = MakeCycle(rng, 3 + rng.Uniform(max_atoms - 2));
      break;
    default:
      shape = MakeHier(rng, 1 + rng.Uniform(max_atoms));
      break;
  }

  // Optionally widen atoms with fresh (atom-local) variables up to
  // max_arity — these never change the join structure, only the arity mix.
  Var next_var = 0;
  for (const Schema& s : shape.schemas) {
    for (Var v : s) next_var = std::max(next_var, static_cast<Var>(v + 1));
  }
  for (Schema& s : shape.schemas) {
    while (s.size() < opts.max_arity && rng.Chance(0.25)) {
      s.push_back(next_var++);
    }
  }

  // Free set: full (join query), empty (scalar aggregate), or a random
  // subset — the subset case is what straddles the q-hierarchical boundary
  // (e.g. a chain with only its middle variable free is hierarchicality's
  // counterexample).
  Schema all;
  for (const Schema& s : shape.schemas) all = SchemaUnion(all, s);
  Schema free;
  switch (rng.Uniform(4)) {
    case 0:
      free = all;
      break;
    case 1:
      break;  // empty: full aggregate
    default:
      for (Var v : all) {
        if (rng.Chance(0.5)) free.push_back(v);
      }
      break;
  }

  GenQuery gq;
  gq.shape = shape.tag;
  // Register variables 0..n-1 in order so Var ids match the dense indexes
  // the shapes were built over.
  for (size_t i = 0; i < next_var; ++i) {
    Var v = gq.vars.GetOrCreate(VarName(i));
    INCR_CHECK(v == i);
  }
  std::vector<Atom> atoms;
  for (size_t i = 0; i < shape.schemas.size(); ++i) {
    std::string rel = "R";
    rel += std::to_string(i);
    atoms.push_back(Atom{std::move(rel), shape.schemas[i]});
  }
  // Occasional self-join: rename a later atom to an earlier one's relation,
  // provided the arities agree (the parser-enforced invariant).
  if (atoms.size() >= 2 && rng.Chance(opts.self_join_prob)) {
    size_t from = 1 + rng.Uniform(atoms.size() - 1);
    size_t to = rng.Uniform(from);
    if (atoms[from].schema.size() == atoms[to].schema.size()) {
      atoms[from].relation = atoms[to].relation;
    }
  }
  gq.query = Query("Q", free, std::move(atoms));
  Status st = FinalizeGenQuery(&gq);
  INCR_CHECK(st.ok());  // generated queries always admit a path order
  return gq;
}

}  // namespace check
}  // namespace incr
