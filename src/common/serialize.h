// Binary serialization for the comm layer and model snapshots.
//
// Little-endian, length-prefixed, no alignment requirements. ByteReader
// validates every read against the remaining buffer and throws
// SerializationError on truncation, so malformed client payloads cannot
// crash the server.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"

namespace fedcleanse::common {

// XXH64 (seed 0) over a byte range — the integrity check shared by the comm
// layer's message stamps, the checkpoint formats (model + run snapshots) and
// the journal's argv hash. Four independent 64-bit lanes per 32-byte stripe
// keep it at memory speed on model-sized payloads; the result is the
// reference xxHash64 value on every host, whatever its byte order.
std::uint64_t xxh64(const std::uint8_t* data, std::size_t n);
inline std::uint64_t xxh64(const std::vector<std::uint8_t>& bytes) {
  return xxh64(bytes.data(), bytes.size());
}

class ByteWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_bool(bool v);
  void write_string(const std::string& s);
  void write_f32_vector(const std::vector<float>& v);
  void write_u32_vector(const std::vector<std::uint32_t>& v);
  void write_i32_vector(const std::vector<std::int32_t>& v);
  void write_u8_vector(const std::vector<std::uint8_t>& v);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n);
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  float read_f32();
  double read_f64();
  bool read_bool();
  std::string read_string();
  std::vector<float> read_f32_vector();
  std::vector<std::uint32_t> read_u32_vector();
  std::vector<std::int32_t> read_i32_vector();
  std::vector<std::uint8_t> read_u8_vector();

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void take(void* out, std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace fedcleanse::common
