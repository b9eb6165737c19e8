// Byte-level (de)serialization of tensors and parameter sets.
//
// Used by the communication substrate so that "sending a model" moves real
// bytes whose count matches what the timing model charges for.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace comdml::tensor {

/// Serialized wire format: [rank u32][dims i64...][payload f32...].
[[nodiscard]] std::vector<uint8_t> to_bytes(const Tensor& t);

/// Parse one tensor from `bytes` starting at `offset`; advances `offset`.
/// Throws std::invalid_argument on truncated or malformed input.
[[nodiscard]] Tensor from_bytes(const std::vector<uint8_t>& bytes,
                                size_t& offset);

/// Serialize a whole parameter list (e.g. a model snapshot).
[[nodiscard]] std::vector<uint8_t> pack_tensors(const std::vector<Tensor>& ts);

/// Inverse of pack_tensors.
[[nodiscard]] std::vector<Tensor> unpack_tensors(
    const std::vector<uint8_t>& bytes);

/// Total payload bytes a tensor list occupies on the wire.
[[nodiscard]] int64_t wire_bytes(const std::vector<Tensor>& ts);
/// Same, for a list of tensor pointers (Module::collect_state order).
[[nodiscard]] int64_t wire_bytes(const std::vector<Tensor*>& ts);

// ---- durable-state byte streams ---------------------------------------------

/// Append-only byte stream for durable state (fleet checkpoints). Scalars
/// are fixed-width native-endian — the checkpoint format targets
/// same-machine restore, like the tensor wire format above. Sequences are
/// length-prefixed so the reader needs no out-of-band sizes.
class ByteWriter {
 public:
  void u8(uint8_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v);
  void f32(float v);
  void f64(double v);
  /// u32 byte count + raw bytes.
  void str(const std::string& s);
  /// u32 count + payload.
  void i64s(const std::vector<int64_t>& v);
  void f64s(std::span<const double> v);
  /// pack_tensors framing (u32 count + per-tensor wire format).
  void tensors(const std::vector<Tensor>& ts);
  /// Same framing straight from live tensors (a model's collect_state
  /// pointers), without a snapshot copy.
  void tensors(const std::vector<Tensor*>& ts);

  /// Presize for `bytes` more bytes, so a large stream is written without
  /// regrowth copies.
  void reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  /// Overwrite the u64 written at byte `offset` (a header field whose
  /// value, such as a checksum, is known only once the body is written).
  void patch_u64(size_t offset, uint64_t v);

  [[nodiscard]] const std::vector<uint8_t>& bytes() const noexcept {
    return buf_;
  }
  /// Hand the stream out without a copy; the writer is left empty.
  [[nodiscard]] std::vector<uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over a ByteWriter stream. Every accessor throws
/// std::invalid_argument on truncated input; expect_done() rejects
/// trailing garbage.
class ByteReader {
 public:
  /// Borrows `bytes`; the buffer must outlive the reader.
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(&bytes) {}

  [[nodiscard]] uint8_t u8();
  [[nodiscard]] uint32_t u32();
  [[nodiscard]] uint64_t u64();
  [[nodiscard]] int64_t i64();
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<int64_t> i64s();
  [[nodiscard]] std::vector<double> f64s();
  /// f64s() into `out`, resized to the count: one copy of the values,
  /// with no zero-fill first where `out`'s allocator skips it.
  template <class Alloc>
  void f64s(std::vector<double, Alloc>& out) {
    const auto n = u32();
    const uint8_t* values = take_array(n, sizeof(double));
    out.resize(n);
    if (n > 0) std::memcpy(out.data(), values, n * sizeof(double));
  }
  [[nodiscard]] std::vector<Tensor> tensors();

  [[nodiscard]] bool done() const noexcept {
    return offset_ == bytes_->size();
  }
  /// Current read position (checksum validation hashes the bytes past the
  /// envelope header).
  [[nodiscard]] size_t offset() const noexcept { return offset_; }
  /// Throws unless the stream was consumed exactly.
  void expect_done() const;

 private:
  /// The next `n` values of `size` bytes each; throws when the stream is
  /// shorter.
  [[nodiscard]] const uint8_t* take_array(uint32_t n, size_t size);

  const std::vector<uint8_t>* bytes_;
  size_t offset_ = 0;
};

}  // namespace comdml::tensor
