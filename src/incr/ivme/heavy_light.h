// Heavy/light data partitioning (paper §3.3, the IVMe technique of Kara,
// Ngo, Nikolic, Olteanu, Zhang [18,19]).
//
// A binary relation K(key, other) over Z is split on its first column into a
// light part (keys of low degree) and a heavy part (keys of high degree).
// With threshold theta ~ N^eps the parts obey, at all times:
//
//   * every light key has degree  < 2*theta      (so light scans are cheap)
//   * every heavy key has degree >= theta/2      (so there are at most
//                                                  2N/theta heavy keys)
//
// The factor-2 hysteresis between the promotion threshold (2*theta) and the
// demotion threshold (theta/2) is what makes *minor rebalancing* (moving one
// key's group between parts) amortized: a key must absorb Theta(theta)
// updates between consecutive migrations [19]. *Major rebalancing* (picking
// a new theta when the database size N has drifted by 2x) is coordinated by
// the owner, which rebuilds its auxiliary views at the same time.
//
// Migration is owner-driven: Apply never migrates on its own, so the owner
// can subtract view contributions before the move and add them back after.
#ifndef INCR_IVME_HEAVY_LIGHT_H_
#define INCR_IVME_HEAVY_LIGHT_H_

#include <cstdint>
#include <vector>

#include "incr/data/relation.h"
#include "incr/ring/int_ring.h"

namespace incr {

class HeavyLightRelation {
 public:
  enum Part : int { kLight = 0, kHeavy = 1 };

  /// Index ids valid for both parts.
  static constexpr size_t kByKey = 0;    // group by column 0 (partition key)
  static constexpr size_t kByOther = 1;  // group by column 1

  explicit HeavyLightRelation(int64_t theta);

  int64_t theta() const { return theta_; }

  /// Which part currently holds tuples with this key.
  Part PartOf(Value key) const {
    return heavy_keys_.FindSlot(key) != kNoSlot ? kHeavy : kLight;
  }

  /// Number of tuples with this key (across both parts; exactly one part is
  /// ever populated for a given key).
  int64_t Degree(Value key) const {
    const size_t slot = degrees_.FindSlot(key);
    return slot == kNoSlot ? 0 : degrees_.ValueAt(degrees_.EntryOf(slot));
  }

  /// Applies payload delta d to (key, other); returns the part it landed in.
  /// Does not migrate; callers follow up with ShouldPromote/ShouldDemote.
  Part Apply(Value key, Value other, int64_t d);

  /// True if `key` is light and its degree reached the promotion threshold.
  bool ShouldPromote(Value key) const {
    return PartOf(key) == kLight && Degree(key) >= 2 * theta_;
  }

  /// True if `key` is heavy and its degree fell below the demotion
  /// threshold.
  bool ShouldDemote(Value key) const {
    return PartOf(key) == kHeavy && 2 * Degree(key) < theta_;
  }

  /// Moves every tuple of `key` to the other part. The group contents are
  /// unchanged, so owners may compute view deltas from either side of the
  /// move.
  void Migrate(Value key);

  const Relation<IntRing>& part(Part p) const { return parts_[p]; }
  const Relation<IntRing>& light() const { return parts_[kLight]; }
  const Relation<IntRing>& heavy() const { return parts_[kHeavy]; }

  /// Payload of (key, other) regardless of part.
  int64_t Payload(Value key, Value other) const;

  /// Entry ids of `key`'s group in part(PartOf(key)), the part that holds
  /// it; empty if none. Dereference them through that part.
  GroupView Group(Value key, std::vector<uint32_t>* scratch) const {
    return parts_[PartOf(key)].index(kByKey).Group(Tuple{key}, scratch);
  }

  /// Entry ids of the tuples (key, other) for a given `other`, within part
  /// `p`.
  GroupView GroupByOther(Part p, Value other,
                         std::vector<uint32_t>* scratch) const {
    return parts_[p].index(kByOther).Group(Tuple{other}, scratch);
  }

  /// Dense iteration over the current heavy keys (at most 2N/theta of them).
  const DenseMap<Value, char>& heavy_keys() const { return heavy_keys_; }

  size_t size() const {
    return parts_[kLight].size() + parts_[kHeavy].size();
  }

  /// Copies all (key, other) -> payload entries out (for major rebalances).
  void ExtractAll(std::vector<std::pair<Tuple, int64_t>>* out) const;

  /// Checks the partition invariants stated above; used by tests.
  bool InvariantsHold() const;

 private:
  int64_t theta_;
  Relation<IntRing> parts_[2];
  DenseMap<Value, int64_t> degrees_;
  DenseMap<Value, char> heavy_keys_;
};

}  // namespace incr

#endif  // INCR_IVME_HEAVY_LIGHT_H_
