#include "trace/vclock.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/error.h"

namespace acfc::trace {

void VClock::index_fail() {
  ACFC_CHECK_MSG(false, "vector clock index out of range");
  std::abort();  // unreachable: ACFC_CHECK_MSG throws
}

void VClock::detach() {
  auto fresh = std::make_shared_for_overwrite<std::uint64_t[]>(
      static_cast<std::size_t>(size_));
  std::copy(heap_.get(), heap_.get() + size_, fresh.get());
  heap_ = std::move(fresh);
}

std::uint64_t* VClock::overwrite(int nprocs) {
  if (nprocs <= kInlineCapacity) {
    heap_.reset();
  } else if (nprocs != size_ || heap_.use_count() != 1) {
    heap_ = std::make_shared_for_overwrite<std::uint64_t[]>(
        static_cast<std::size_t>(nprocs));
  }
  size_ = nprocs;
  return nprocs > kInlineCapacity ? heap_.get() : small_;
}

void VClock::merge(const VClock& other) {
  ACFC_CHECK_MSG(size_ == other.size_, "vector clock size mismatch");
  std::uint64_t* mine = data();
  const std::uint64_t* theirs = other.data();
  for (int i = 0; i < size_; ++i) mine[i] = std::max(mine[i], theirs[i]);
}

bool VClock::happened_before(const VClock& other) const {
  ACFC_CHECK_MSG(size_ == other.size_, "vector clock size mismatch");
  const std::uint64_t* mine = data();
  const std::uint64_t* theirs = other.data();
  bool strictly_less = false;
  for (int i = 0; i < size_; ++i) {
    if (mine[i] > theirs[i]) return false;
    if (mine[i] < theirs[i]) strictly_less = true;
  }
  return strictly_less;
}

bool VClock::concurrent_with(const VClock& other) const {
  return !happened_before(other) && !other.happened_before(*this) &&
         !(*this == other);
}

bool VClock::operator==(const VClock& other) const {
  if (size_ != other.size_) return false;
  return std::equal(data(), data() + size_, other.data());
}

std::string VClock::str() const {
  std::ostringstream os;
  os << '[';
  const std::uint64_t* c = data();
  for (int i = 0; i < size_; ++i) {
    if (i) os << ' ';
    os << c[i];
  }
  os << ']';
  return os.str();
}

}  // namespace acfc::trace
