// FNV-1a 64: the one checksum behind the federation digest, checkpoint
// segment trailers, config fingerprints and run-journal lines.

#ifndef SRC_BASE_FNV_H_
#define SRC_BASE_FNV_H_

#include <cstdint>
#include <string_view>

namespace elsc {

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ULL;

// Folds `data` into a running hash `h` (start from kFnv1aOffset).
inline uint64_t Fnv1aFold(uint64_t h, std::string_view data) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view data) {
  return Fnv1aFold(kFnv1aOffset, data);
}

}  // namespace elsc

#endif  // SRC_BASE_FNV_H_
