#include "tensor/hash.hpp"

#include <bit>
#include <cstring>

namespace comdml::tensor {

uint64_t checksum(const void* data, size_t bytes) noexcept {
  constexpr uint64_t kMul = 0x9e3779b185ebca87ull;
  constexpr uint64_t kWordMul = 0xc2b2ae3d27d4eb4full;
  const auto lane_step = [](uint64_t lane, uint64_t word) {
    return std::rotl(lane + word * kWordMul, 31) * kMul;
  };
  const auto word_at = [](const unsigned char* p) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };
  uint64_t lanes[4] = {kMul, kWordMul, ~kMul, ~kWordMul};
  const auto* p = static_cast<const unsigned char*>(data);
  const size_t words = bytes / sizeof(uint64_t);
  size_t i = 0;
  for (; i + 4 <= words; i += 4, p += 4 * sizeof(uint64_t)) {
    lanes[0] = lane_step(lanes[0], word_at(p));
    lanes[1] = lane_step(lanes[1], word_at(p + 8));
    lanes[2] = lane_step(lanes[2], word_at(p + 16));
    lanes[3] = lane_step(lanes[3], word_at(p + 24));
  }
  size_t lane = 0;
  for (; i < words; ++i, ++lane, p += sizeof(uint64_t))
    lanes[lane] = lane_step(lanes[lane], word_at(p));
  if (const size_t tail = bytes % sizeof(uint64_t); tail != 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, tail);
    lanes[lane] = lane_step(lanes[lane], word);
  }
  uint64_t h = mix64(static_cast<uint64_t>(bytes));
  for (const uint64_t l : lanes) h = mix64(h ^ l);
  return h;
}

}  // namespace comdml::tensor
