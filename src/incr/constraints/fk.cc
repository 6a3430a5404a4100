#include "incr/constraints/fk.h"

#include "incr/util/check.h"

namespace incr {

namespace {

/// The count of `v`, 0 if absent.
int64_t Count(const DenseMap<Value, int64_t>& counts, Value v) {
  const size_t slot = counts.FindSlot(v);
  return slot == kNoSlot ? 0 : counts.ValueAt(counts.EntryOf(slot));
}

}  // namespace

void FkConsistencyTracker::OnUpdate(const std::string& rel, const Tuple& t,
                                    int64_t m) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FkSpec& spec = specs_[i];
    FkState& st = state_[i];
    if (rel == spec.child_rel) {
      Value v = t[spec.child_col];
      const size_t slot = st.child_count.FindOrInsert(v, 0).slot;
      int64_t& cnt = st.child_count.ValueAt(st.child_count.EntryOf(slot));
      cnt += m;
      INCR_DCHECK(cnt >= 0);
      if (Count(st.parent_count, v) <= 0) violations_ += m;
      if (cnt == 0) st.child_count.EraseSlot(slot);
    }
    if (rel == spec.parent_rel) {
      Value v = t[spec.parent_col];
      const size_t slot = st.parent_count.FindOrInsert(v, 0).slot;
      int64_t& cnt = st.parent_count.ValueAt(st.parent_count.EntryOf(slot));
      bool was_present = cnt > 0;
      cnt += m;
      INCR_DCHECK(cnt >= 0);
      bool present = cnt > 0;
      if (was_present != present) {
        const int64_t dangling = Count(st.child_count, v);
        violations_ += present ? -dangling : dangling;
      }
      if (cnt == 0) st.parent_count.EraseSlot(slot);
    }
  }
}

}  // namespace incr
