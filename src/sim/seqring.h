// SeqRing<T>: a flat hash-free replacement for std::map<long, T> keyed by
// channel sequence numbers.
//
// Transport state is windowed: live keys cluster in a contiguous-ish range
// [base, next) that only slides forward (cumulative acks erase the prefix,
// new sends/arrivals append near the top, an occasional give-up punches a
// hole). A power-of-two slot ring indexed by seq & (capacity-1) makes
// find/insert/erase O(1) pointer-free slot probes; the ring doubles when
// two live keys would collide (window outgrew capacity). erase_below is
// amortized O(1) per insert — each key is swept at most once.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.h"

namespace acfc::sim {

template <typename T>
class SeqRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  bool contains(long seq) const { return find(seq) != nullptr; }

  const T* find(long seq) const {
    if (count_ == 0 || seq < base_ || seq >= top_) return nullptr;
    const Slot& slot = slots_[index_of(seq)];
    return (slot.used && slot.seq == seq) ? &slot.value : nullptr;
  }
  T* find(long seq) {
    return const_cast<T*>(static_cast<const SeqRing*>(this)->find(seq));
  }

  /// Inserts `seq` (absent, ≥ base) → reference to the stored value.
  T& insert(long seq, T value) {
    ACFC_CHECK_MSG(seq >= base_ && find(seq) == nullptr,
                   "SeqRing::insert of a live or swept sequence number");
    if (slots_.empty()) slots_.resize(kMinSlots);
    if (seq >= top_) top_ = seq + 1;
    while (true) {
      Slot& slot = slots_[index_of(seq)];
      if (!slot.used) {
        slot.used = true;
        slot.seq = seq;
        slot.value = std::move(value);
        ++count_;
        return slot.value;
      }
      grow();  // a live key from an older window occupies the slot
    }
  }

  void erase(long seq) {
    if (count_ == 0 || seq < base_ || seq >= top_) return;
    Slot& slot = slots_[index_of(seq)];
    if (slot.used && slot.seq == seq) {
      slot.used = false;
      --count_;
    }
  }

  /// Erases every live key < `upto` and advances the sweep origin.
  void erase_below(long upto) {
    for (long seq = base_; seq < upto && seq < top_; ++seq) {
      Slot& slot = slots_[index_of(seq)];
      if (slot.used && slot.seq == seq) {
        slot.used = false;
        --count_;
      }
    }
    if (upto > base_) base_ = upto;
  }

  /// Smallest live key; precondition: !empty().
  long min_seq() const {
    for (long seq = base_; seq < top_; ++seq) {
      const Slot& slot = slots_[index_of(seq)];
      if (slot.used && slot.seq == seq) return seq;
    }
    ACFC_CHECK_MSG(false, "SeqRing::min_seq on an empty ring");
    return 0;
  }

  /// Forgets every entry; capacity is retained (rollbacks reuse it).
  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    count_ = 0;
    base_ = 0;
    top_ = 0;
  }

 private:
  struct Slot {
    T value{};
    long seq = 0;
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 16;

  std::size_t index_of(long seq) const {
    return static_cast<std::size_t>(seq) & (slots_.size() - 1);
  }

  void grow() {
    // Capacity must exceed the live window span so keys are unique modulo
    // capacity: [min live, top) fits. base_ stays put — a hole below the
    // smallest live key (a lost message awaiting its retransmit) must still
    // accept an insert; only erase_below advances the sweep origin.
    long min_live = top_;
    for (long seq = base_; seq < top_; ++seq) {
      const Slot& slot = slots_[index_of(seq)];
      if (slot.used && slot.seq == seq) {
        min_live = seq;
        break;
      }
    }
    std::size_t needed = slots_.size() << 1;
    while (needed < static_cast<std::size_t>(top_ - min_live + 1))
      needed <<= 1;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(needed);
    for (Slot& slot : old) {
      if (!slot.used) continue;
      Slot& fresh = slots_[index_of(slot.seq)];
      ACFC_CHECK_MSG(!fresh.used, "SeqRing rehash collision");
      fresh.used = true;
      fresh.seq = slot.seq;
      fresh.value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  long base_ = 0;  ///< sweep origin: no live key is below it
  long top_ = 0;   ///< one past the largest key ever inserted
};

}  // namespace acfc::sim
