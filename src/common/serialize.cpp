#include "common/serialize.h"

#include <bit>

namespace fedcleanse::common {

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

// Little-endian loads: XXH64 is defined over little-endian words.
template <typename T>
T load_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) r = (r << 8) | ((v >> (8 * i)) & 0xFF);
    v = r;
  }
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxh_round(0, lane)) * kP1 + kP4;
}

}  // namespace

std::uint64_t xxh64(const std::uint8_t* data, std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = xxh_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ xxh_round(0, load_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

void ByteWriter::append(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::write_u8(std::uint8_t v) { append(&v, 1); }

void ByteWriter::write_u32(std::uint32_t v) {
  std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                       static_cast<std::uint8_t>(v >> 16), static_cast<std::uint8_t>(v >> 24)};
  append(b, 4);
}

void ByteWriter::write_u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  append(b, 8);
}

void ByteWriter::write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }

void ByteWriter::write_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(bits);
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void ByteWriter::write_f32_vector(const std::vector<float>& v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  for (float x : v) write_f32(x);
}

void ByteWriter::write_u32_vector(const std::vector<std::uint32_t>& v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) write_u32(x);
}

void ByteWriter::write_i32_vector(const std::vector<std::int32_t>& v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  for (auto x : v) write_i32(x);
}

void ByteWriter::write_u8_vector(const std::vector<std::uint8_t>& v) {
  write_u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size());
}

void ByteReader::take(void* out, std::size_t n) {
  if (pos_ + n > size_) throw SerializationError("buffer underrun");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::uint8_t ByteReader::read_u8() {
  std::uint8_t v;
  take(&v, 1);
  return v;
}

std::uint32_t ByteReader::read_u32() {
  std::uint8_t b[4];
  take(b, 4);
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t ByteReader::read_u64() {
  std::uint8_t b[8];
  take(b, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

std::int32_t ByteReader::read_i32() { return static_cast<std::int32_t>(read_u32()); }

float ByteReader::read_f32() {
  std::uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::read_f64() {
  std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool ByteReader::read_bool() { return read_u8() != 0; }

std::string ByteReader::read_string() {
  std::uint32_t n = read_u32();
  if (pos_ + n > size_) throw SerializationError("string length exceeds buffer");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> ByteReader::read_f32_vector() {
  std::uint32_t n = read_u32();
  if (pos_ + static_cast<std::size_t>(n) * 4 > size_)
    throw SerializationError("f32 vector length exceeds buffer");
  std::vector<float> v(n);
  for (auto& x : v) x = read_f32();
  return v;
}

std::vector<std::uint32_t> ByteReader::read_u32_vector() {
  std::uint32_t n = read_u32();
  if (pos_ + static_cast<std::size_t>(n) * 4 > size_)
    throw SerializationError("u32 vector length exceeds buffer");
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = read_u32();
  return v;
}

std::vector<std::int32_t> ByteReader::read_i32_vector() {
  std::uint32_t n = read_u32();
  if (pos_ + static_cast<std::size_t>(n) * 4 > size_)
    throw SerializationError("i32 vector length exceeds buffer");
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = read_i32();
  return v;
}

std::vector<std::uint8_t> ByteReader::read_u8_vector() {
  std::uint32_t n = read_u32();
  if (pos_ + n > size_) throw SerializationError("u8 vector length exceeds buffer");
  std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return v;
}

}  // namespace fedcleanse::common
