// Content checksums for the stable-storage layer.
//
// XXH64 (Yann Collet's xxHash, 64-bit variant — public-domain algorithm,
// reimplemented here from the specification so the repo stays
// dependency-free). The storage layer stamps every checkpoint record and
// every published manifest with one of these; restore verifies before it
// trusts an image. The algorithm is fixed — changing it would invalidate
// every stored manifest — so treat the constants as an on-disk format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace acfc::util {

/// One-shot XXH64 of `len` bytes. Matches the reference xxHash library
/// bit-for-bit (tests/test_checksum.cpp pins the published vectors).
std::uint64_t checksum64(const void* data, std::size_t len,
                         std::uint64_t seed = 0);

inline std::uint64_t checksum64(std::string_view bytes,
                                std::uint64_t seed = 0) {
  return checksum64(bytes.data(), bytes.size(), seed);
}

}  // namespace acfc::util
