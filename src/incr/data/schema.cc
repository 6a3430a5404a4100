#include "incr/data/schema.h"

#include "incr/util/check.h"

namespace incr {

Var VarRegistry::GetOrCreate(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  Var id = static_cast<Var>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::optional<Var> VarRegistry::Get(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string VarRegistry::Name(Var v) const {
  if (v < names_.size()) return names_[v];
  std::string name = "?";
  name += std::to_string(v);
  return name;
}

std::optional<uint32_t> FindVar(const Schema& schema, Var v) {
  for (uint32_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == v) return i;
  }
  return std::nullopt;
}

bool SchemaContains(const Schema& schema, Var v) {
  return FindVar(schema, v).has_value();
}

bool SchemaSubset(const Schema& a, const Schema& b) {
  for (Var v : a) {
    if (!SchemaContains(b, v)) return false;
  }
  return true;
}

Schema SchemaIntersect(const Schema& a, const Schema& b) {
  Schema out;
  for (Var v : a) {
    if (SchemaContains(b, v)) out.push_back(v);
  }
  return out;
}

Schema SchemaUnion(const Schema& a, const Schema& b) {
  Schema out = a;
  for (Var v : b) {
    if (!SchemaContains(out, v)) out.push_back(v);
  }
  return out;
}

Schema SchemaMinus(const Schema& a, const Schema& b) {
  Schema out;
  for (Var v : a) {
    if (!SchemaContains(b, v)) out.push_back(v);
  }
  return out;
}

SmallVector<uint32_t, 4> ProjectionPositions(const Schema& from,
                                             const Schema& to) {
  SmallVector<uint32_t, 4> out;
  out.reserve(to.size());
  for (Var v : to) {
    auto pos = FindVar(from, v);
    INCR_CHECK(pos.has_value());
    out.push_back(*pos);
  }
  return out;
}

std::string SchemaToString(const Schema& schema, const VarRegistry& vars) {
  std::string out = "(";
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out += ", ";
    out += vars.Name(schema[i]);
  }
  out += ")";
  return out;
}

}  // namespace incr
