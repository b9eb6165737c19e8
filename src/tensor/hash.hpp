// The library's one integrity checksum, plus the splitmix64 finalizer it
// (and the transport's deterministic fault decisions) build on.
//
// checksum() guards both message payloads (comm::Message) and durable
// checkpoint frames (core::RealFleet CMDL/CMDS blobs).
#pragma once

#include <cstddef>
#include <cstdint>

namespace comdml::tensor {

/// splitmix64 finalizer: the avalanche stage that turns structured inputs
/// into uniform bits. A bijection of its argument.
[[nodiscard]] constexpr uint64_t mix64(uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Word-at-a-time checksum of `bytes` bytes. 64-bit native-endian words
/// stream round-robin through four independent multiply-rotate lanes
/// (the trailing words feed the first lanes; a final partial word is
/// zero-padded), then mix64 folds the byte length and the lanes. A lane
/// step is a bijection of its word for a fixed lane state and of the lane
/// state for a fixed word, and the fold is a bijection of each lane in
/// turn, so changing any one word of an equal-length input (any single
/// bit flip included) always changes the result. Seedless and stable for
/// same-endian machines, like the formats it guards.
[[nodiscard]] uint64_t checksum(const void* data, size_t bytes) noexcept;

}  // namespace comdml::tensor
