#include "incr/ivme/heavy_light.h"

#include "incr/util/check.h"

namespace incr {

namespace {
Relation<IntRing> MakePart() {
  Relation<IntRing> r(Schema{0, 1});
  size_t by_key = r.AddIndex(Schema{0});
  size_t by_other = r.AddIndex(Schema{1});
  INCR_CHECK(by_key == HeavyLightRelation::kByKey);
  INCR_CHECK(by_other == HeavyLightRelation::kByOther);
  return r;
}
}  // namespace

HeavyLightRelation::HeavyLightRelation(int64_t theta)
    : theta_(theta), parts_{MakePart(), MakePart()} {
  INCR_CHECK(theta_ >= 1);
}

HeavyLightRelation::Part HeavyLightRelation::Apply(Value key, Value other,
                                                   int64_t d) {
  if (d == 0) return PartOf(key);
  Part p = PartOf(key);
  Relation<IntRing>& rel = parts_[p];
  const int sign = rel.Apply(Tuple{key, other}, d);
  if (sign != 0) {
    const size_t slot = degrees_.FindOrInsert(key, 0).slot;
    int64_t& deg = degrees_.ValueAt(degrees_.EntryOf(slot));
    deg += sign;
    INCR_DCHECK(deg >= 0);
    if (deg == 0 && p == kLight) degrees_.EraseSlot(slot);
  }
  return p;
}

void HeavyLightRelation::Migrate(Value key) {
  Part from = PartOf(key);
  Part to = from == kLight ? kHeavy : kLight;
  // Copy the group's entries out first: Apply mutates the index we'd be
  // iterating and renames the entry ids.
  const Relation<IntRing>& src = parts_[from];
  std::vector<std::pair<Tuple, int64_t>> group;
  std::vector<uint32_t> ids;
  Tuple scratch;
  for (uint32_t id : src.index(kByKey).Group(Tuple{key}, &ids)) {
    group.emplace_back(src.KeyAt(id, &scratch), src.ValueAt(id));
  }
  for (const auto& [t, payload] : group) {
    parts_[from].Apply(t, -payload);
    parts_[to].Apply(t, payload);
  }
  if (to == kHeavy) {
    heavy_keys_.FindOrInsert(key, 1);
  } else {
    heavy_keys_.Erase(key);
    if (Degree(key) == 0) degrees_.Erase(key);
  }
}

int64_t HeavyLightRelation::Payload(Value key, Value other) const {
  return parts_[PartOf(key)].Payload(Tuple{key, other});
}

void HeavyLightRelation::ExtractAll(
    std::vector<std::pair<Tuple, int64_t>>* out) const {
  for (int p = 0; p < 2; ++p) {
    for (const auto& e : parts_[p]) out->emplace_back(e.key, e.value);
  }
}

bool HeavyLightRelation::InvariantsHold() const {
  // Light keys: degree < 2*theta. Heavy keys: 2*degree >= theta.
  const GroupedIndex& light = parts_[kLight].index(kByKey);
  for (size_t g = 0; g < light.NumGroups(); ++g) {
    const Tuple& key_tuple = light.GroupKey(g);
    Value key = key_tuple[0];
    if (PartOf(key) == kHeavy) return false;  // parts overlap
    if (Degree(key) >= 2 * theta_) return false;
    if (static_cast<int64_t>(light.GroupSize(key_tuple)) != Degree(key)) {
      return false;
    }
  }
  for (const auto& e : heavy_keys_) {
    if (2 * Degree(e.key) < theta_) return false;
  }
  // Every heavy part group's key must be marked heavy.
  const GroupedIndex& heavy = parts_[kHeavy].index(kByKey);
  for (size_t g = 0; g < heavy.NumGroups(); ++g) {
    if (PartOf(heavy.GroupKey(g)[0]) != kHeavy) return false;
  }
  return true;
}

}  // namespace incr
