#include "incr/ivme/triangle.h"

#include <cmath>
#include <utility>
#include <vector>

#include "incr/util/check.h"

namespace incr {

namespace {

constexpr size_t kByFirst = 0;
constexpr size_t kBySecond = 1;

Relation<IntRing> MakeBinary() {
  Relation<IntRing> r(Schema{0, 1});
  r.AddIndex(Schema{0});
  r.AddIndex(Schema{1});
  return r;
}

}  // namespace

// ---------------------------------------------------------------- Naive --

NaiveTriangleCounter::NaiveTriangleCounter()
    : r_(MakeBinary()), s_(MakeBinary()), t_(MakeBinary()) {}

void NaiveTriangleCounter::Update(TriangleRel rel, Value x, Value y,
                                  int64_t m) {
  Relation<IntRing>* rels[3] = {&r_, &s_, &t_};
  rels[static_cast<int>(rel)]->Apply(Tuple{x, y}, m);
}

int64_t NaiveTriangleCounter::Count() const {
  // For each R(a,b): intersect the C-lists of S(b,*) and T(*,a), scanning
  // the smaller list and probing the other — the classic worst-case-optimal
  // evaluation pattern for the triangle join.
  int64_t count = 0;
  std::vector<uint32_t> s_ids, t_ids;
  Tuple scratch;
  for (const auto& re : r_) {
    Value a = re.key[0], b = re.key[1];
    const auto sg = s_.index(kByFirst).Group(Tuple{b}, &s_ids);
    const auto tg = t_.index(kBySecond).Group(Tuple{a}, &t_ids);
    if (sg.empty() || tg.empty()) continue;
    int64_t acc = 0;
    if (sg.size() <= tg.size()) {
      for (uint32_t id : sg) {
        const Tuple& st = s_.KeyAt(id, &scratch);
        acc += s_.ValueAt(id) * t_.Payload(Tuple{st[1], a});
      }
    } else {
      for (uint32_t id : tg) {
        const Tuple& tt = t_.KeyAt(id, &scratch);
        acc += t_.ValueAt(id) * s_.Payload(Tuple{b, tt[0]});
      }
    }
    count += re.value * acc;
  }
  return count;
}

// ---------------------------------------------------------------- Delta --

DeltaTriangleCounter::DeltaTriangleCounter()
    : r_(MakeBinary()), s_(MakeBinary()), t_(MakeBinary()) {}

void DeltaTriangleCounter::Update(TriangleRel rel, Value x, Value y,
                                  int64_t m) {
  Relation<IntRing>* rels[3] = {&r_, &s_, &t_};
  int i = static_cast<int>(rel);
  // The query is cyclically symmetric: a delta (x, y) to rels[i] joins
  // rels[i+1](y, z) with rels[i+2](z, x). Scan the smaller adjacency list.
  Relation<IntRing>& nxt = *rels[(i + 1) % 3];
  Relation<IntRing>& nxt2 = *rels[(i + 2) % 3];
  std::vector<uint32_t> ids1, ids2;
  const auto g1 = nxt.index(kByFirst).Group(Tuple{y}, &ids1);
  const auto g2 = nxt2.index(kBySecond).Group(Tuple{x}, &ids2);
  int64_t acc = 0;
  Tuple scratch;
  if (!g1.empty() && !g2.empty()) {
    if (g1.size() <= g2.size()) {
      for (uint32_t id : g1) {
        const Tuple& t = nxt.KeyAt(id, &scratch);
        acc += nxt.ValueAt(id) * nxt2.Payload(Tuple{t[1], x});
      }
    } else {
      for (uint32_t id : g2) {
        const Tuple& t = nxt2.KeyAt(id, &scratch);
        acc += nxt2.ValueAt(id) * nxt.Payload(Tuple{y, t[0]});
      }
    }
  }
  count_ += m * acc;
  rels[i]->Apply(Tuple{x, y}, m);
}

// --------------------------------------------------------- Materialized --

MaterializedTriangleCounter::MaterializedTriangleCounter()
    : r_(MakeBinary()), s_(MakeBinary()), t_(MakeBinary()),
      v_st_(Schema{0, 1}) {}  // V_ST is only probed by full key: no indexes

void MaterializedTriangleCounter::Update(TriangleRel rel, Value x, Value y,
                                         int64_t m) {
  switch (rel) {
    case TriangleRel::kR: {
      // dQ = dR(a,b) * V_ST(b,a): one lookup (Ex. 3.2).
      count_ += m * v_st_.Payload(Tuple{y, x});
      r_.Apply(Tuple{x, y}, m);
      break;
    }
    case TriangleRel::kS: {
      // dV_ST(b,A) = dS(b,c) * T(c,A); dQ = SUM_A R(A,b) * dV_ST(b,A).
      Value b = x, c = y;
      std::vector<uint32_t> ids;
      Tuple scratch;
      for (uint32_t id : t_.index(kByFirst).Group(Tuple{c}, &ids)) {
        Value a = t_.KeyAt(id, &scratch)[1];
        int64_t d = m * t_.ValueAt(id);
        count_ += r_.Payload(Tuple{a, b}) * d;
        v_st_.Apply(Tuple{b, a}, d);
      }
      s_.Apply(Tuple{b, c}, m);
      break;
    }
    case TriangleRel::kT: {
      // dV_ST(B,a) = S(B,c) * dT(c,a); dQ = SUM_B R(a,B) * dV_ST(B,a).
      Value c = x, a = y;
      std::vector<uint32_t> ids;
      Tuple scratch;
      for (uint32_t id : s_.index(kBySecond).Group(Tuple{c}, &ids)) {
        Value b = s_.KeyAt(id, &scratch)[0];
        int64_t d = s_.ValueAt(id) * m;
        count_ += r_.Payload(Tuple{a, b}) * d;
        v_st_.Apply(Tuple{b, a}, d);
      }
      t_.Apply(Tuple{c, a}, m);
      break;
    }
  }
}

// ------------------------------------------------------------- IVM-eps --

int64_t IvmEpsTriangleCounter::Theta(double epsilon, int64_t n) {
  if (n <= 1) return 1;
  double t = std::pow(static_cast<double>(n), epsilon);
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(t)));
}

IvmEpsTriangleCounter::IvmEpsTriangleCounter(double epsilon)
    // Auxiliary views are only probed by full key: no indexes needed.
    : views_{Relation<IntRing>(Schema{0, 1}), Relation<IntRing>(Schema{0, 1}),
             Relation<IntRing>(Schema{0, 1})},
      epsilon_(epsilon) {
  INCR_CHECK(epsilon >= 0.0 && epsilon <= 1.0);
  for (auto& rel : rels_) {
    rel = std::make_unique<HeavyLightRelation>(1);
  }
}

int64_t IvmEpsTriangleCounter::DeltaCount(int i, Value x, Value y,
                                          int64_t m) const {
  const HeavyLightRelation& nxt = *rels_[(i + 1) % 3];
  const HeavyLightRelation& nxt2 = *rels_[(i + 2) % 3];
  int64_t acc = 0;
  if (nxt.PartOf(y) == HeavyLightRelation::kLight) {
    // Light join key: scan its group (< 2*theta tuples) and probe the third
    // relation. Covers the (L,L) and (L,H) skew-aware deltas of §3.3.
    const Relation<IntRing>& light = nxt.light();
    std::vector<uint32_t> ids;
    Tuple scratch;
    for (uint32_t id : nxt.Group(y, &ids)) {
      acc += light.ValueAt(id) * nxt2.Payload(light.KeyAt(id, &scratch)[1], x);
    }
  } else {
    // Heavy join key.
    // (H,H): iterate the <= 2N/theta heavy keys of the third relation.
    for (const auto& hk : nxt2.heavy_keys()) {
      Value z = hk.key;
      acc += nxt.heavy().Payload(Tuple{y, z}) *
             nxt2.heavy().Payload(Tuple{z, x});
    }
    // (H,L): one lookup in the precomputed auxiliary view.
    acc += views_[i].Payload(Tuple{y, x});
  }
  return m * acc;
}

void IvmEpsTriangleCounter::MaintainViews(int i,
                                          HeavyLightRelation::Part part,
                                          Value x, Value y, int64_t d) {
  if (part == HeavyLightRelation::kHeavy) {
    // rels_[i] appears as the heavy factor of views_[(i+2)%3]:
    //   views_[j](x, w) += d * rels_[i+1]_L(y, w).
    Relation<IntRing>& view = views_[(i + 2) % 3];
    const HeavyLightRelation& nxt = *rels_[(i + 1) % 3];
    if (nxt.PartOf(y) == HeavyLightRelation::kLight) {
      const Relation<IntRing>& light = nxt.light();
      std::vector<uint32_t> ids;
      Tuple scratch;
      for (uint32_t id : nxt.Group(y, &ids)) {
        view.Apply(Tuple{x, light.KeyAt(id, &scratch)[1]},
                   d * light.ValueAt(id));
      }
    }
  } else {
    // rels_[i] appears as the light factor of views_[(i+1)%3]:
    //   views_[j](u, y) += rels_[i+2]_H(u, x) * d.
    Relation<IntRing>& view = views_[(i + 1) % 3];
    const HeavyLightRelation& prv = *rels_[(i + 2) % 3];
    const Relation<IntRing>& heavy = prv.heavy();
    std::vector<uint32_t> ids;
    Tuple scratch;
    for (uint32_t id : prv.GroupByOther(HeavyLightRelation::kHeavy, x, &ids)) {
      view.Apply(Tuple{heavy.KeyAt(id, &scratch)[0], y},
                 heavy.ValueAt(id) * d);
    }
  }
}

void IvmEpsTriangleCounter::ApplyGroupToViews(int i,
                                              HeavyLightRelation::Part as_part,
                                              Value key, int64_t sign) {
  // MaintainViews touches other relations and views, never rels_[i], so
  // the group's ids stay valid across the loop.
  const Relation<IntRing>& part_rel =
      rels_[i]->part(rels_[i]->PartOf(key));
  std::vector<uint32_t> ids;
  Tuple scratch;
  for (uint32_t id : rels_[i]->Group(key, &ids)) {
    const Tuple& t = part_rel.KeyAt(id, &scratch);
    MaintainViews(i, as_part, t[0], t[1], sign * part_rel.ValueAt(id));
  }
}

void IvmEpsTriangleCounter::MaybeMigrate(int i, Value key) {
  HeavyLightRelation& rel = *rels_[i];
  if (rel.ShouldPromote(key)) {
    ApplyGroupToViews(i, HeavyLightRelation::kLight, key, -1);
    rel.Migrate(key);
    ApplyGroupToViews(i, HeavyLightRelation::kHeavy, key, +1);
    ++migrations_;
  } else if (rel.ShouldDemote(key)) {
    ApplyGroupToViews(i, HeavyLightRelation::kHeavy, key, -1);
    rel.Migrate(key);
    ApplyGroupToViews(i, HeavyLightRelation::kLight, key, +1);
    ++migrations_;
  }
}

void IvmEpsTriangleCounter::Update(TriangleRel r, Value x, Value y,
                                   int64_t m) {
  if (m == 0) return;
  int i = static_cast<int>(r);
  count_ += DeltaCount(i, x, y, m);
  HeavyLightRelation::Part part = rels_[i]->Apply(x, y, m);
  MaintainViews(i, part, x, y, m);
  MaybeMigrate(i, x);
  MaybeMajorRebalance();
}

void IvmEpsTriangleCounter::MaybeMajorRebalance() {
  int64_t n = 0;
  for (const auto& rel : rels_) n += static_cast<int64_t>(rel->size());
  if (n0_ == 0 ? n == 0 : (n < 2 * n0_ && 2 * n > n0_)) return;
  ++major_rebalances_;
  n0_ = n;
  int64_t theta = Theta(epsilon_, n);
  for (auto& rel : rels_) {
    std::vector<std::pair<Tuple, int64_t>> tuples;
    rel->ExtractAll(&tuples);
    auto fresh = std::make_unique<HeavyLightRelation>(theta);
    for (const auto& [t, payload] : tuples) {
      fresh->Apply(t[0], t[1], payload);
    }
    // Initial split at theta (between the 2*theta promotion and theta/2
    // demotion thresholds, maximizing hysteresis slack on both sides).
    std::vector<Value> heavy;
    const GroupedIndex& by_key =
        fresh->light().index(HeavyLightRelation::kByKey);
    for (size_t g = 0; g < by_key.NumGroups(); ++g) {
      const Value k = by_key.GroupKey(g)[0];
      if (fresh->Degree(k) >= theta) heavy.push_back(k);
    }
    for (Value k : heavy) fresh->Migrate(k);
    *rel = std::move(*fresh);
  }
  RebuildViews();
}

void IvmEpsTriangleCounter::RebuildViews() {
  for (int j = 0; j < 3; ++j) {
    views_[j].Clear();
    const HeavyLightRelation& hrel = *rels_[(j + 1) % 3];
    const HeavyLightRelation& lrel = *rels_[(j + 2) % 3];
    const Relation<IntRing>& light = lrel.light();
    std::vector<uint32_t> ids;
    Tuple scratch;
    for (const auto& e : hrel.heavy()) {
      Value u = e.key[0], z = e.key[1];
      for (uint32_t id :
           light.index(HeavyLightRelation::kByKey).Group(Tuple{z}, &ids)) {
        views_[j].Apply(Tuple{u, light.KeyAt(id, &scratch)[1]},
                        e.value * light.ValueAt(id));
      }
    }
  }
}

bool IvmEpsTriangleCounter::InvariantsHold() const {
  for (const auto& rel : rels_) {
    if (!rel->InvariantsHold()) return false;
  }
  // Views must equal their definition, recomputed from scratch.
  for (int j = 0; j < 3; ++j) {
    Relation<IntRing> expect(Schema{0, 1});
    const HeavyLightRelation& hrel = *rels_[(j + 1) % 3];
    const HeavyLightRelation& lrel = *rels_[(j + 2) % 3];
    const Relation<IntRing>& light = lrel.light();
    std::vector<uint32_t> ids;
    Tuple scratch;
    for (const auto& e : hrel.heavy()) {
      for (uint32_t id : light.index(HeavyLightRelation::kByKey)
                             .Group(Tuple{e.key[1]}, &ids)) {
        expect.Apply(Tuple{e.key[0], light.KeyAt(id, &scratch)[1]},
                     e.value * light.ValueAt(id));
      }
    }
    if (expect.size() != views_[j].size()) return false;
    for (const auto& e : expect) {
      if (views_[j].Payload(e.key) != e.value) return false;
    }
  }
  return true;
}

}  // namespace incr
