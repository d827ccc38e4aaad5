// Calendar queue (R. Brown, CACM 1988): the engine's O(1)-amortized event
// scheduler.
//
// Events hash into a power-of-two ring of "day" buckets by
// day(t) = floor(t / width) mod nbuckets; one full ring is a "year".
// pop() scans forward from the current day and extracts the (time, seq)-
// minimum among the current day's events in that bucket (top() runs the
// same scan and leaves the minimum in place); when a whole year
// turns up empty the queue jumps straight to the globally minimal event
// (direct search), so sparse regions cost one O(size) skip instead of
// unbounded day-walks.
//
// Each bucket is a binary min-heap under (time, seq) rather than an
// unordered bag: barrier-style workloads release bursts of same-time
// events that all hash to one day no matter how the width adapts, and a
// bag degrades pop() to a linear scan of the burst (O(k) per pop, O(k²)
// per burst — measured at a third of total sim time for the n=64 ring).
// A heap caps the burst cost at O(log k) and makes the bucket minimum —
// which, because day(t) is monotone in t, also carries the bucket's
// minimal day — readable in O(1) at front().
//
// Eligibility is decided by comparing INTEGER day numbers computed with
// the exact same day(t) used for bucket placement — never by a floating
// day-end boundary accumulated with repeated `+= width`. Simulated times
// cluster at decimal values that sit within a few ulp of day boundaries,
// so a drifted float boundary misclassifies a current-day event as
// next-year and pops it a whole year late; an integer day comparison
// cannot disagree with placement.
//
// Determinism: (time, seq) is a unique total order (seq is the engine's
// push counter and never repeats), and pop() always extracts the global
// minimum under that order, so the pop sequence — and therefore every
// digest downstream — is bit-identical to std::priority_queue<Ev, EvCmp>.
// The bucket layout only changes how fast the minimum is found.
//
// Sizing: the ring doubles when size() outgrows 2·nbuckets and halves
// below nbuckets/2; each resize re-estimates the bucket width from the
// median adjacent gap of a sample of event times (median, not mean, so one
// far-future outlier — an armed failure, a deep RTO — cannot smear every
// near-term event into a single day). Buckets keep their capacity across
// pops, so the steady state allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.h"

namespace acfc::sim {

class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const Ev& ev) {
    if (size_ == 0 || day_of(ev.time) < cur_day_) {
      // First event (re)anchors the calendar; an event behind the scan
      // position (the engine's 1e-12 time slack makes this possible in
      // principle) rewinds it, so nothing is popped out of order.
      anchor(ev.time);
    }
    std::vector<Ev>& day = bucket_of(ev.time);
    day.push_back(ev);
    std::push_heap(day.begin(), day.end(), EvCmp{});
    ++size_;
    if (static_cast<long>(size_) > stats_.size_high_water)
      stats_.size_high_water = static_cast<long>(size_);
    if (size_ > (buckets_.size() << 1)) {
      ++stats_.grows;
      resize(buckets_.size() << 1);
    }
  }

  /// The (time, seq)-minimum, left in place. Precondition: !empty().
  /// Moves the scan to the minimum's day exactly as pop() would, so the
  /// pop that follows a top() finds it without scanning again. The
  /// reference is valid until the next push() or pop().
  const Ev& top() { return buckets_[seek()].front(); }

  /// Extracts the (time, seq)-minimum. Precondition: !empty().
  Ev pop() {
    std::vector<Ev>& day = buckets_[seek()];
    std::pop_heap(day.begin(), day.end(), EvCmp{});
    const Ev ev = day.back();
    day.pop_back();
    --size_;
    if (size_ < (buckets_.size() >> 1) && buckets_.size() > kMinBuckets) {
      ++stats_.shrinks;
      resize(buckets_.size() >> 1);
    }
    return ev;
  }

  double width() const { return width_; }
  std::size_t nbuckets() const { return buckets_.size(); }

  /// Visits every queued event in unspecified order (bucket layout order).
  /// Consumers needing a layout-independent result must combine per-event
  /// values commutatively — see Engine::schedule_state_hash.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::vector<Ev>& day : buckets_)
      for (const Ev& ev : day) fn(ev);
  }

  static constexpr int kOccupancyBuckets = 16;

  /// Rare-event accounting, maintained with plain increments on the cold
  /// paths only (resize / empty-year jumps) so the hot push/pop pair stays
  /// untouched. The engine flushes these into obs::Registry at end of run.
  struct Stats {
    long grows = 0;          ///< ring doublings
    long shrinks = 0;        ///< ring halvings
    long direct_jumps = 0;   ///< whole-empty-year jumps to the global min
    long size_high_water = 0;///< max events resident at once
    /// Events-per-nonempty-bucket distribution sampled at every resize
    /// (log2 buckets, index = bit_width(occupancy), same convention as
    /// obs::Histogram::bucket_of).
    long occupancy_samples[kOccupancyBuckets] = {};
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  /// Scans forward from the current day to the bucket holding the (time,
  /// seq)-minimum and returns its ring index. Precondition: !empty().
  std::size_t seek() {
    std::size_t scanned = 0;
    while (true) {
      const std::vector<Ev>& day = buckets_[cur_];
      // front() is the bucket's (time, seq)-minimum and therefore also its
      // minimal day; if even that is a future year, nothing here is due.
      if (!day.empty() && day_of(day.front().time) <= cur_day_)
        return cur_;
      ++cur_day_;
      cur_ = cur_day_ & (buckets_.size() - 1);
      if (++scanned >= buckets_.size()) {
        // A whole empty year: jump to the global minimum's day.
        ++stats_.direct_jumps;
        jump_to_min();
        scanned = 0;
      }
    }
  }

  std::uint64_t day_of(double time) const {
    return static_cast<std::uint64_t>(time * inv_width_);
  }
  std::vector<Ev>& bucket_of(double time) {
    return buckets_[day_of(time) & (buckets_.size() - 1)];
  }

  /// Points the scan at the day containing `time`.
  void anchor(double time) {
    cur_day_ = day_of(time);
    cur_ = cur_day_ & (buckets_.size() - 1);
  }

  void jump_to_min() {
    const Ev* min = nullptr;
    for (const std::vector<Ev>& day : buckets_)
      if (!day.empty() && (min == nullptr || ev_before(day.front(), *min)))
        min = &day.front();
    if (min != nullptr) anchor(min->time);
  }

  /// Median adjacent gap over a sample of event times; 0 when every
  /// sampled pair coincides.
  double sample_gap() {
    sample_.clear();
    const std::size_t stride =
        std::max<std::size_t>(1, size_ / kSampleCap);
    std::size_t seen = 0;
    for (const std::vector<Ev>& day : buckets_)
      for (const Ev& ev : day)
        if (seen++ % stride == 0) sample_.push_back(ev.time);
    if (sample_.size() < 2) return 0.0;
    std::sort(sample_.begin(), sample_.end());
    gaps_.clear();
    for (std::size_t i = 1; i < sample_.size(); ++i) {
      const double gap = sample_[i] - sample_[i - 1];
      if (gap > 0.0) gaps_.push_back(gap);
    }
    if (gaps_.empty()) return 0.0;
    auto mid = gaps_.begin() + static_cast<std::ptrdiff_t>(gaps_.size() / 2);
    std::nth_element(gaps_.begin(), mid, gaps_.end());
    return *mid;
  }

  void resize(std::size_t nbuckets) {
    // Occupancy distribution of the layout being torn down: log2-bucketed
    // events-per-nonempty-day, one sample per non-empty day.
    for (const std::vector<Ev>& day : buckets_) {
      if (day.empty()) continue;
      int b = 0;
      for (std::size_t n = day.size(); n != 0; n >>= 1) ++b;
      if (b >= kOccupancyBuckets) b = kOccupancyBuckets - 1;
      ++stats_.occupancy_samples[b];
    }
    const double gap = sample_gap();
    // ~3 events per day at the sampled spacing keeps day scans short while
    // leaving most days non-empty; coincident times keep the old width.
    if (gap > 0.0) {
      width_ = gap * 3.0;
      inv_width_ = 1.0 / width_;
    }
    spill_.clear();
    for (std::vector<Ev>& day : buckets_)
      for (const Ev& ev : day) spill_.push_back(ev);
    buckets_.clear();
    buckets_.resize(nbuckets);
    const Ev* min = nullptr;
    for (const Ev& ev : spill_) {
      bucket_of(ev.time).push_back(ev);
      if (min == nullptr || ev_before(ev, *min)) min = &ev;
    }
    for (std::vector<Ev>& day : buckets_)
      std::make_heap(day.begin(), day.end(), EvCmp{});
    if (min != nullptr) anchor(min->time);
  }

  static constexpr std::size_t kSampleCap = 64;

  std::vector<std::vector<Ev>> buckets_;
  std::size_t size_ = 0;
  std::size_t cur_ = 0;           ///< ring index of the day the scan is on
  std::uint64_t cur_day_ = 0;     ///< absolute day number the scan is on
  double width_ = 1e-3;           ///< day length (seconds)
  double inv_width_ = 1e3;
  Stats stats_;
  std::vector<double> sample_;    ///< resize scratch (kept for capacity)
  std::vector<double> gaps_;
  std::vector<Ev> spill_;
};

}  // namespace acfc::sim
