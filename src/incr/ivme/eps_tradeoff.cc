#include "incr/ivme/eps_tradeoff.h"

#include <cmath>

#include "incr/util/check.h"

namespace incr {

int64_t EpsTradeoffEngine::Theta(double epsilon, int64_t n) {
  if (n <= 1) return 1;
  return std::max<int64_t>(
      1, static_cast<int64_t>(
             std::llround(std::pow(static_cast<double>(n), epsilon))));
}

EpsTradeoffEngine::EpsTradeoffEngine(double epsilon)
    : epsilon_(epsilon),
      r_(std::make_unique<HeavyLightRelation>(1)),
      s_(Schema{1}),
      v_l_(Schema{0}) {
  INCR_CHECK(epsilon >= 0.0 && epsilon <= 1.0);
}

void EpsTradeoffEngine::BulkLoad(
    const std::vector<std::pair<Tuple, int64_t>>& r,
    const std::vector<std::pair<Value, int64_t>>& s) {
  s_.Clear();
  v_l_.Clear();
  for (const auto& [b, m] : s) s_.Apply(Tuple{b}, m);

  int64_t n = static_cast<int64_t>(r.size() + s.size());
  n0_ = n;
  int64_t theta = Theta(epsilon_, n);
  r_ = std::make_unique<HeavyLightRelation>(theta);
  // Insert all of R (everything lands light), then promote keys at >= theta
  // (between the theta/2 demotion and 2*theta promotion thresholds).
  for (const auto& [t, m] : r) {
    r_->Apply(t[1], t[0], m);  // stored as (B, A)
  }
  std::vector<Value> heavy;
  const GroupedIndex& by_key = r_->light().index(HeavyLightRelation::kByKey);
  for (size_t g = 0; g < by_key.NumGroups(); ++g) {
    const Value b = by_key.GroupKey(g)[0];
    if (r_->Degree(b) >= theta) heavy.push_back(b);
  }
  for (Value b : heavy) r_->Migrate(b);
  // One pass over the light part builds V_L.
  for (const auto& e : r_->light()) {
    Value b = e.key[0], a = e.key[1];
    v_l_.Apply(Tuple{a}, e.value * s_.Payload(Tuple{b}));
  }
}

void EpsTradeoffEngine::UpdateR(Value a, Value b, int64_t m) {
  if (m == 0) return;
  auto part = r_->Apply(b, a, m);
  if (part == HeavyLightRelation::kLight) {
    v_l_.Apply(Tuple{a}, m * s_.Payload(Tuple{b}));
  }
  MaybeMigrate(b);
  MaybeMajorRebalance();
}

void EpsTradeoffEngine::UpdateS(Value b, int64_t m) {
  if (m == 0) return;
  s_.Apply(Tuple{b}, m);
  if (r_->PartOf(b) == HeavyLightRelation::kLight) {
    const Relation<IntRing>& light = r_->light();
    std::vector<uint32_t> ids;
    Tuple scratch;
    for (uint32_t id : r_->Group(b, &ids)) {
      v_l_.Apply(Tuple{light.KeyAt(id, &scratch)[1]}, light.ValueAt(id) * m);
    }
  }
  MaybeMajorRebalance();
}

int64_t EpsTradeoffEngine::QueryOne(Value a) const {
  int64_t q = v_l_.Payload(Tuple{a});
  for (const auto& hk : r_->heavy_keys()) {
    Value b = hk.key;
    q += r_->heavy().Payload(Tuple{b, a}) * s_.Payload(Tuple{b});
  }
  return q;
}

size_t EpsTradeoffEngine::EnumerateLimit(size_t limit,
                                         const Sink& sink) const {
  size_t n = 0;
  // Candidates with light contributions.
  for (const auto& e : v_l_) {
    int64_t q = QueryOne(e.key[0]);
    if (q != 0) {
      if (sink) sink(e.key[0], q);
      if (++n == limit) return n;
    }
  }
  // Heavy-only candidates: distinct A values of the heavy part not already
  // covered by V_L.
  const GroupedIndex& by_other =
      r_->heavy().index(HeavyLightRelation::kByOther);
  for (size_t g = 0; g < by_other.NumGroups(); ++g) {
    Value a = by_other.GroupKey(g)[0];
    if (v_l_.Contains(Tuple{a})) continue;
    int64_t q = QueryOne(a);
    if (q != 0) {
      if (sink) sink(a, q);
      if (++n == limit) return n;
    }
  }
  return n;
}

void EpsTradeoffEngine::ApplyGroupToView(Value b, int64_t sign) {
  int64_t sb = s_.Payload(Tuple{b});
  if (sb == 0) return;
  const Relation<IntRing>& part = r_->part(r_->PartOf(b));
  std::vector<uint32_t> ids;
  Tuple scratch;
  for (uint32_t id : r_->Group(b, &ids)) {
    v_l_.Apply(Tuple{part.KeyAt(id, &scratch)[1]},
               sign * part.ValueAt(id) * sb);
  }
}

void EpsTradeoffEngine::MaybeMigrate(Value b) {
  if (r_->ShouldPromote(b)) {
    ApplyGroupToView(b, -1);  // leaves the light part
    r_->Migrate(b);
    ++migrations_;
  } else if (r_->ShouldDemote(b)) {
    r_->Migrate(b);
    ApplyGroupToView(b, +1);  // joins the light part
    ++migrations_;
  }
}

void EpsTradeoffEngine::MaybeMajorRebalance() {
  int64_t n = static_cast<int64_t>(Size());
  if (n0_ == 0 ? n == 0 : (n < 2 * n0_ && 2 * n > n0_)) return;
  ++major_rebalances_;
  std::vector<std::pair<Tuple, int64_t>> r;
  r_->ExtractAll(&r);
  for (auto& [t, m] : r) {
    Value b = t[0], a = t[1];
    t = Tuple{a, b};  // BulkLoad expects (A, B)
    (void)m;
  }
  std::vector<std::pair<Value, int64_t>> s;
  for (const auto& e : s_) s.emplace_back(e.key[0], e.value);
  int64_t saved_migrations = migrations_;
  int64_t saved_rebalances = major_rebalances_;
  BulkLoad(r, s);
  migrations_ = saved_migrations;
  major_rebalances_ = saved_rebalances;
}

bool EpsTradeoffEngine::InvariantsHold() const {
  if (!r_->InvariantsHold()) return false;
  // V_L == SUM_B R_L(A,B)*S(B), recomputed from scratch.
  Relation<IntRing> expect(Schema{0});
  for (const auto& e : r_->light()) {
    expect.Apply(Tuple{e.key[1]}, e.value * s_.Payload(Tuple{e.key[0]}));
  }
  if (expect.size() != v_l_.size()) return false;
  for (const auto& e : expect) {
    if (v_l_.Payload(e.key) != e.value) return false;
  }
  return true;
}

}  // namespace incr
