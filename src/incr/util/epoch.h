// Epoch-based reclamation for single-writer / multi-reader snapshot
// isolation (DESIGN.md §concurrency). The writer publishes immutable
// versions tagged with monotonically increasing epochs; readers pin the
// current epoch with a RAII ReadGuard before touching any version, and the
// writer reclaims a version only once its epoch is below every pinned one.
//
// Protocol (all epoch atomics are seq_cst; the Dekker-style store/load
// pairing below is what makes the pin race-free):
//
//   writer, per publish:            reader, per pin:
//     build version V_e off-side      slot <- published      (store)
//     head <- V_e        (release)    e'   <- published      (load)
//     published <- e     (store)      retry until e' == slot
//     reclaim epochs < MinActive()
//
// Either the writer's MinActive() scan observes the reader's slot store (so
// it keeps every version the reader may touch), or the reader's re-load of
// `published` observes the writer's bump and the reader re-pins the newer
// epoch. A pinned guard therefore protects every version with epoch >= the
// pinned value — in particular whatever `head` pointed at after the pin.
//
// Slots are a fixed array of cache-line-padded atomics: pinning is a scan
// for a free slot (cheap at realistic reader counts), never an allocation.
// Each slot also records the thread that holds its pin, so a writer that
// waits for pins can tell when one of them is its own: a wait that can
// never end (see HoldsOwnPinAtOrBelow).
#ifndef INCR_UTIL_EPOCH_H_
#define INCR_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "incr/obs/recorder.h"
#include "incr/util/check.h"

namespace incr::epoch {

/// A process-unique, non-zero token for the calling thread.
inline uint64_t ThisThreadToken() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t token = next.fetch_add(1);
  return token;
}

/// Tracks the published epoch and every reader's pinned epoch.
/// Thread-safe; one writer bumps, any number of readers pin.
class Manager {
 public:
  /// More concurrent ReadGuards than this spin-wait for a slot.
  static constexpr size_t kMaxReaders = 128;
  /// MinActive() when no reader is pinned: larger than any real epoch.
  static constexpr uint64_t kNone = UINT64_MAX;

  Manager() = default;
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// The most recently published epoch (0 before the first Publish).
  uint64_t published() const {
    return published_.load(std::memory_order_seq_cst);
  }

  /// Writer only. Epochs must be published in increasing order, after the
  /// version they tag is reachable by readers.
  void Publish(uint64_t e) {
    INCR_DCHECK(e > published_.load(std::memory_order_relaxed));
    published_.store(e, std::memory_order_seq_cst);
    obs::RecordEvent(obs::EventKind::kEpochPublish, e);
  }

  /// The minimum epoch any reader currently pins, or kNone when no reader
  /// is pinned. The writer may reclaim every version with epoch < MinActive.
  uint64_t MinActive() const {
    uint64_t min = kNone;
    for (const Slot& s : slots_) {
      uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e < min) min = e;
    }
    return min;
  }

  /// True when the calling thread holds a pin at or below `e`. A writer
  /// waiting for every such pin to go would then wait on itself forever,
  /// whatever other readers do. A pin belongs to the thread that last used
  /// its guard: the pinning thread, until a guard moved to another thread
  /// is used there (ReadGuard::Adopt re-stamps the slot). A token is
  /// written only by the thread it names while it holds the guard, and the
  /// holder clears it before unpinning.
  bool HoldsOwnPinAtOrBelow(uint64_t e) const {
    const uint64_t self = ThisThreadToken();
    for (const Slot& s : slots_) {
      if (s.owner.load(std::memory_order_seq_cst) == self &&
          s.epoch.load(std::memory_order_seq_cst) <= e) {
        return true;
      }
    }
    return false;
  }

  /// Number of currently pinned slots (diagnostics only; racy by nature).
  size_t ActiveReaders() const {
    size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.epoch.load(std::memory_order_relaxed) != kIdle) ++n;
    }
    return n;
  }

 private:
  friend class ReadGuard;

  static constexpr uint64_t kIdle = UINT64_MAX;

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    // ThisThreadToken() of the thread holding the pin; 0 while unpinned.
    // Written only by the holder: set after the pin, re-stamped by Adopt
    // on a new thread, cleared before the unpin.
    std::atomic<uint64_t> owner{0};
  };

  // Claims a slot and pins the current published epoch into it. Returns
  // the slot index; the pinned epoch is readable from the slot itself.
  size_t Pin() {
    for (;;) {
      for (size_t i = 0; i < kMaxReaders; ++i) {
        uint64_t expected = kIdle;
        uint64_t e = published_.load(std::memory_order_seq_cst);
        if (!slots_[i].epoch.compare_exchange_strong(
                expected, e, std::memory_order_seq_cst)) {
          continue;
        }
        slots_[i].owner.store(ThisThreadToken(), std::memory_order_seq_cst);
        // Validate: if the writer bumped between our store and this load it
        // may have missed our pin in its MinActive scan, so re-pin the
        // newer epoch until store and published agree.
        for (;;) {
          uint64_t now = published_.load(std::memory_order_seq_cst);
          if (now == e) return i;
          slots_[i].epoch.store(now, std::memory_order_seq_cst);
          e = now;
        }
      }
      std::this_thread::yield();  // every slot busy; wait for a reader
    }
  }

  void Adopt(size_t slot) {
    const uint64_t self = ThisThreadToken();
    std::atomic<uint64_t>& owner = slots_[slot].owner;
    if (owner.load(std::memory_order_relaxed) != self) {
      owner.store(self, std::memory_order_seq_cst);
    }
  }

  void Unpin(size_t slot) {
    slots_[slot].owner.store(0, std::memory_order_seq_cst);
    slots_[slot].epoch.store(kIdle, std::memory_order_seq_cst);
  }

  std::atomic<uint64_t> published_{0};
  Slot slots_[kMaxReaders];
};

/// RAII epoch pin. While alive, the writer retains every version with
/// epoch >= epoch(). Movable, not copyable; cheap enough to take per read
/// but designed to be held across a whole enumeration.
class ReadGuard {
 public:
  explicit ReadGuard(Manager* mgr) : mgr_(mgr), slot_(mgr->Pin()) {
    epoch_ = mgr_->slots_[slot_].epoch.load(std::memory_order_relaxed);
  }

  ReadGuard(ReadGuard&& o) noexcept
      : mgr_(o.mgr_), slot_(o.slot_), epoch_(o.epoch_) {
    o.mgr_ = nullptr;
  }
  ReadGuard& operator=(ReadGuard&& o) noexcept {
    if (this != &o) {
      Release();
      mgr_ = o.mgr_;
      slot_ = o.slot_;
      epoch_ = o.epoch_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

  ~ReadGuard() { Release(); }

  /// The pinned epoch. The version the holder reads may be newer (the head
  /// advanced between pin and load); it is protected either way.
  uint64_t epoch() const { return epoch_; }

  /// Credits the pin to the calling thread. A guard moved to another
  /// thread calls this on use there, so the thread that will release the
  /// pin is the one Manager::HoldsOwnPinAtOrBelow names. One relaxed load
  /// when the caller already holds the credit.
  void Adopt() const {
    if (mgr_ != nullptr) mgr_->Adopt(slot_);
  }

 private:
  void Release() {
    if (mgr_ != nullptr) mgr_->Unpin(slot_);
    mgr_ = nullptr;
  }

  Manager* mgr_;
  size_t slot_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace incr::epoch

#endif  // INCR_UTIL_EPOCH_H_
