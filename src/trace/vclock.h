// Vector clocks — the happened-before oracle of the execution substrate.
//
// Every process carries the vector clock of its current event; e
// happened-before f iff VC(e) < VC(f) componentwise (Mattern/Fidge
// characterization of Lamport's relation).
//
// The trace keeps a full clock only where something reads one: at every
// checkpoint (CkptRec::vc, for cut consistency) and at every send
// (MsgRec::send_vc, merged by the receive). A receive keeps only the
// receiver's own component (MsgRec::recv_tick) and an event record keeps
// none. Two layers keep the remaining copies cheap:
//
//  * Components live inline (no heap) up to kInlineCapacity processes;
//    every inline word is zeroed at construction, so copying a clock is
//    one fixed-size copy of the whole inline array.
//  * Spilled clocks (> kInlineCapacity) share an immutable payload
//    copy-on-write: copying is a refcount bump, and only mutation
//    (tick/merge) clones a shared payload. The engine pays one
//    payload clone per mutation after a stamp (a send or a checkpoint)
//    instead of one per copy.
//
// The payload refcount is std::shared_ptr's (atomic), so clocks may be
// copied across threads; as always, concurrent mutation of one VClock
// object requires external synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace acfc::trace {

class VClock {
 public:
  /// World sizes up to this many processes store components inline.
  static constexpr int kInlineCapacity = 8;

  VClock() = default;
  explicit VClock(int nprocs) : size_(nprocs) {
    if (size_ > kInlineCapacity)
      heap_ = std::make_shared<std::uint64_t[]>(
          static_cast<std::size_t>(size_));  // value-initialized: all zero
  }

  // The implicit copy and move copy all kInlineCapacity inline words (a
  // fixed-size copy, no length branch) and the payload pointer (null for
  // inline clocks, shared for spilled ones).

  int size() const { return size_; }
  std::uint64_t operator[](int i) const { return data()[check_index(i)]; }

  /// Advances this process's component (call on every local event).
  void tick(int proc) { ++data()[check_index(proc)]; }

  /// The size() components, for raw copies (checkpoint images).
  const std::uint64_t* words() const { return data(); }

  /// Resizes to `nprocs` components and returns their storage for the
  /// caller to fill (deserialization only). An unshared payload of the
  /// same size is reused; otherwise the clock gets a fresh one.
  std::uint64_t* overwrite(int nprocs);

  /// Componentwise max (call on message receipt with the sender's clock).
  void merge(const VClock& other);

  /// True iff this clock is componentwise ≤ other and ≠ other: the event
  /// stamped with *this happened before the event stamped with other.
  bool happened_before(const VClock& other) const;

  /// Neither happened_before the other (and not equal): concurrent.
  bool concurrent_with(const VClock& other) const;

  bool operator==(const VClock& other) const;

  std::string str() const;

 private:
  const std::uint64_t* data() const {
    return size_ > kInlineCapacity ? heap_.get() : small_;
  }
  /// Mutable access: the write gate of the copy-on-write scheme. A payload
  /// referenced by other clocks is cloned before this clock writes to it,
  /// so shared payloads are immutable in practice.
  std::uint64_t* data() {
    if (size_ > kInlineCapacity) {
      if (heap_.use_count() != 1) detach();
      return heap_.get();
    }
    return small_;
  }
  void detach();
  // Bounds check on the hot indexing path: inline compare, out-of-line
  // throw (keeps util/error.h out of this header and the failure path off
  // the fast path).
  std::size_t check_index(int i) const {
    if (i < 0 || i >= size_) index_fail();
    return static_cast<std::size_t>(i);
  }
  [[noreturn]] static void index_fail();

  int size_ = 0;
  // Always fully initialized (spilled clocks keep theirs zero), so the
  // fixed-size copy never reads an indeterminate word.
  std::uint64_t small_[kInlineCapacity] = {};
  std::shared_ptr<std::uint64_t[]> heap_;
};

}  // namespace acfc::trace
