// Vector clocks — the happened-before oracle of the execution substrate.
//
// Every simulated event carries the vector clock of its process at the
// time it occurred; e happened-before f iff VC(e) < VC(f) componentwise
// (Mattern/Fidge characterization of Lamport's relation).
//
// The simulator stamps one clock per event record and two per message, so
// clock copies are the allocation hot path of the engine. Two layers keep
// that path cheap:
//
//  * Components live inline (no heap) up to kInlineCapacity processes;
//    copying an inline clock is a plain memcpy.
//  * Spilled clocks (> kInlineCapacity) share an immutable payload
//    copy-on-write: copying is a refcount bump, and only mutation
//    (tick/set/merge) clones a shared payload. Stamping the live clock
//    into a trace record therefore allocates nothing; the engine pays one
//    payload clone per *mutation* instead of one per *copy*, and records
//    stamped from the same instant (an event record and its message
//    record, say) share a single block.
//
// The payload refcount is std::shared_ptr's (atomic), so clocks may be
// copied across threads; as always, concurrent mutation of one VClock
// object requires external synchronization.
#pragma once

#include <algorithm>
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
    else
      std::fill(small_, small_ + size_, 0);
  }

  // Copy/move only the active storage: inline clocks are a fixed-size
  // memcpy with no heap traffic, spilled clocks share the payload (a
  // refcount bump). small_ stays uninitialized for spilled clocks — it is
  // only ever read through data(), gated on size_ ≤ kInlineCapacity.
  VClock(const VClock& other) : size_(other.size_) {
    if (size_ > kInlineCapacity)
      heap_ = other.heap_;
    else
      std::copy(other.small_, other.small_ + size_, small_);
  }
  VClock& operator=(const VClock& other) {
    size_ = other.size_;
    if (size_ > kInlineCapacity)
      heap_ = other.heap_;
    else
      std::copy(other.small_, other.small_ + size_, small_);
    return *this;
  }
  VClock(VClock&& other) noexcept : size_(other.size_) {
    if (size_ > kInlineCapacity)
      heap_ = std::move(other.heap_);
    else
      std::copy(other.small_, other.small_ + size_, small_);
  }
  VClock& operator=(VClock&& other) noexcept {
    size_ = other.size_;
    if (size_ > kInlineCapacity)
      heap_ = std::move(other.heap_);
    else
      std::copy(other.small_, other.small_ + size_, small_);
    return *this;
  }

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
  // Deliberately no initializer: the ctors zero exactly the components in
  // use, so spilled clocks never pay a 128-byte memset per construction.
  std::uint64_t small_[kInlineCapacity];
  std::shared_ptr<std::uint64_t[]> heap_;
};

}  // namespace acfc::trace
