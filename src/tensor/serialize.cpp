#include "tensor/serialize.hpp"

#include <cstring>

namespace comdml::tensor {

namespace {

template <typename T>
void append_raw(std::vector<uint8_t>& out, const T& value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T read_raw(const std::vector<uint8_t>& bytes, size_t& offset) {
  COMDML_REQUIRE(offset + sizeof(T) <= bytes.size(),
                 "truncated tensor wire data at offset " << offset);
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

size_t tensor_wire_bytes(const Tensor& t) {
  return sizeof(uint32_t) + t.rank() * sizeof(int64_t) +
         static_cast<size_t>(t.nbytes());
}

/// One tensor in the wire format: [rank u32][dims i64...][payload f32...].
void append_tensor(std::vector<uint8_t>& out, const Tensor& t) {
  append_raw(out, static_cast<uint32_t>(t.rank()));
  for (size_t i = 0; i < t.rank(); ++i) append_raw(out, t.dim(i));
  const auto flat = t.flat();
  const auto* p = reinterpret_cast<const uint8_t*>(flat.data());
  out.insert(out.end(), p, p + flat.size() * sizeof(float));
}

const Tensor& deref(const Tensor& t) { return t; }
const Tensor& deref(const Tensor* t) { return *t; }

/// pack_tensors framing of `ts` (tensors or tensor pointers).
template <typename List>
void append_tensors(std::vector<uint8_t>& out, const List& ts) {
  append_raw(out, static_cast<uint32_t>(ts.size()));
  for (const auto& t : ts) append_tensor(out, deref(t));
}

template <typename List>
int64_t list_wire_bytes(const List& ts) {
  size_t total = sizeof(uint32_t);
  for (const auto& t : ts) total += tensor_wire_bytes(deref(t));
  return static_cast<int64_t>(total);
}

}  // namespace

std::vector<uint8_t> to_bytes(const Tensor& t) {
  std::vector<uint8_t> out;
  out.reserve(tensor_wire_bytes(t));
  append_tensor(out, t);
  return out;
}

Tensor from_bytes(const std::vector<uint8_t>& bytes, size_t& offset) {
  const auto rank = read_raw<uint32_t>(bytes, offset);
  COMDML_REQUIRE(rank <= 8, "implausible tensor rank " << rank);
  Shape shape(rank);
  for (auto& d : shape) d = read_raw<int64_t>(bytes, offset);
  const int64_t n = shape_size(shape);
  COMDML_REQUIRE(offset + static_cast<size_t>(n) * sizeof(float) <=
                     bytes.size(),
                 "truncated tensor payload");
  std::vector<float> data(static_cast<size_t>(n));
  std::memcpy(data.data(), bytes.data() + offset,
              static_cast<size_t>(n) * sizeof(float));
  offset += static_cast<size_t>(n) * sizeof(float);
  return Tensor(std::move(shape), std::move(data));
}

std::vector<uint8_t> pack_tensors(const std::vector<Tensor>& ts) {
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(wire_bytes(ts)));
  append_tensors(out, ts);
  return out;
}

std::vector<Tensor> unpack_tensors(const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  const auto count = read_raw<uint32_t>(bytes, offset);
  std::vector<Tensor> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) out.push_back(from_bytes(bytes, offset));
  COMDML_REQUIRE(offset == bytes.size(),
                 "trailing bytes after tensor pack: " << bytes.size() - offset);
  return out;
}

void ByteWriter::u8(uint8_t v) { append_raw(buf_, v); }
void ByteWriter::u32(uint32_t v) { append_raw(buf_, v); }
void ByteWriter::u64(uint64_t v) { append_raw(buf_, v); }
void ByteWriter::i64(int64_t v) { append_raw(buf_, v); }
void ByteWriter::f32(float v) { append_raw(buf_, v); }
void ByteWriter::f64(double v) { append_raw(buf_, v); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::i64s(const std::vector<int64_t>& v) {
  u32(static_cast<uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(int64_t));
}

void ByteWriter::f64s(std::span<const double> v) {
  u32(static_cast<uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const uint8_t*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size() * sizeof(double));
}

void ByteWriter::tensors(const std::vector<Tensor>& ts) {
  append_tensors(buf_, ts);
}

void ByteWriter::tensors(const std::vector<Tensor*>& ts) {
  append_tensors(buf_, ts);
}

void ByteWriter::patch_u64(size_t offset, uint64_t v) {
  COMDML_CHECK(offset + sizeof(v) <= buf_.size());
  std::memcpy(buf_.data() + offset, &v, sizeof(v));
}

uint8_t ByteReader::u8() { return read_raw<uint8_t>(*bytes_, offset_); }
uint32_t ByteReader::u32() { return read_raw<uint32_t>(*bytes_, offset_); }
uint64_t ByteReader::u64() { return read_raw<uint64_t>(*bytes_, offset_); }
int64_t ByteReader::i64() { return read_raw<int64_t>(*bytes_, offset_); }
float ByteReader::f32() { return read_raw<float>(*bytes_, offset_); }
double ByteReader::f64() { return read_raw<double>(*bytes_, offset_); }

std::string ByteReader::str() {
  const auto n = u32();
  COMDML_REQUIRE(offset_ + n <= bytes_->size(), "truncated string payload");
  std::string out(reinterpret_cast<const char*>(bytes_->data() + offset_), n);
  offset_ += n;
  return out;
}

std::vector<int64_t> ByteReader::i64s() {
  const auto n = u32();
  const uint8_t* values = take_array(n, sizeof(int64_t));
  std::vector<int64_t> out(n);
  if (n > 0) std::memcpy(out.data(), values, n * sizeof(int64_t));
  return out;
}

std::vector<double> ByteReader::f64s() {
  std::vector<double> out;
  f64s(out);
  return out;
}

const uint8_t* ByteReader::take_array(uint32_t n, size_t size) {
  const size_t len = static_cast<size_t>(n) * size;
  COMDML_REQUIRE(len <= bytes_->size() - offset_,
                 "truncated array of " << n << " values at offset "
                                       << offset_);
  const uint8_t* out = bytes_->data() + offset_;
  offset_ += len;
  return out;
}

std::vector<Tensor> ByteReader::tensors() {
  const auto n = u32();
  std::vector<Tensor> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) out.push_back(from_bytes(*bytes_, offset_));
  return out;
}

void ByteReader::expect_done() const {
  COMDML_REQUIRE(done(), "trailing bytes in stream: "
                             << bytes_->size() - offset_ << " unread");
}

int64_t wire_bytes(const std::vector<Tensor>& ts) {
  return list_wire_bytes(ts);
}

int64_t wire_bytes(const std::vector<Tensor*>& ts) {
  return list_wire_bytes(ts);
}

}  // namespace comdml::tensor
