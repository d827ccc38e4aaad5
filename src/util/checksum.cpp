#include "util/checksum.h"

#include <cstring>

namespace acfc::util {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // little-endian hosts only (as the repo)
  return v;
}

inline std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t round64(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  acc = rotl(acc, 31);
  return acc * kPrime1;
}

inline std::uint64_t merge_round(std::uint64_t h, std::uint64_t v) {
  h ^= round64(0, v);
  return h * kPrime1 + kPrime4;
}

inline std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

/// Finalization over the < 32 trailing bytes.
std::uint64_t finalize(std::uint64_t h, const unsigned char* p,
                       std::size_t len) {
  while (len >= 8) {
    h ^= round64(0, read64(p));
    h = rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    h = rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    len -= 4;
  }
  while (len > 0) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = rotl(h, 11) * kPrime1;
    ++p;
    --len;
  }
  return avalanche(h);
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t len,
                         std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h;
  std::size_t remaining = len;
  if (remaining >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = round64(v1, read64(p));
      v2 = round64(v2, read64(p + 8));
      v3 = round64(v3, read64(p + 16));
      v4 = round64(v4, read64(p + 24));
      p += 32;
      remaining -= 32;
    } while (remaining >= 32);
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += static_cast<std::uint64_t>(len);
  return finalize(h, p, remaining);
}

}  // namespace acfc::util
