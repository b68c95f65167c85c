#ifndef TELL_COMMON_SERDE_H_
#define TELL_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tell {

/// Append-only little-endian binary writer. All wire formats in the store
/// (versioned records, B+tree nodes, log entries, snapshots) are built with
/// this.
class BufferWriter {
 public:
  BufferWriter() = default;

  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buffer_.append(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void PutRaw(std::string_view s) { buffer_.append(s.data(), s.size()); }

  /// LEB128 varint: 7 bits per byte, low group first; 1 byte below 128, at
  /// most 10.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    buffer_.push_back(static_cast<char>(v));
  }

  /// Varint-length-prefixed byte string.
  void PutVarString(std::string_view s) {
    PutVarint(s.size());
    buffer_.append(s.data(), s.size());
  }

  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  const std::string& data() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void PutFixed(const void* p, size_t n) {
    buffer_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buffer_;
};

/// Bounds-checked reader over a byte string produced by BufferWriter.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) return TruncatedError();
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> GetU32() { return GetFixed<uint32_t>(); }
  Result<uint64_t> GetU64() { return GetFixed<uint64_t>(); }
  Result<int32_t> GetI32() { return GetFixed<int32_t>(); }
  Result<int64_t> GetI64() { return GetFixed<int64_t>(); }
  Result<double> GetDouble() { return GetFixed<double>(); }

  Result<std::string_view> GetString() {
    auto len = GetU32();
    if (!len.ok()) return len.status();
    if (pos_ + *len > data_.size()) return TruncatedError();
    std::string_view out = data_.substr(pos_, *len);
    pos_ += *len;
    return out;
  }

  /// A varint written by BufferWriter::PutVarint. Corruption when the bytes
  /// end inside it or it does not fit 64 bits.
  Result<uint64_t> GetVarint() {
    // One byte holds every value below 128: the common case, kept small
    // enough to inline.
    if (pos_ < data_.size() && static_cast<uint8_t>(data_[pos_]) < 0x80) {
      return static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]));
    }
    return GetLongVarint();
  }

  /// A string written by BufferWriter::PutVarString.
  Result<std::string_view> GetVarString() {
    auto len = GetVarint();
    if (!len.ok()) return len.status();
    return GetRaw(*len);
  }

  Result<std::string_view> GetRaw(size_t n) {
    if (n > data_.size() - pos_) return TruncatedError();
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  template <typename T>
  Result<T> GetFixed() {
    if (pos_ + sizeof(T) > data_.size()) return TruncatedError();
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  Result<uint64_t> GetLongVarint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return TruncatedError();
      const auto byte = static_cast<uint8_t>(data_[pos_++]);
      const uint64_t bits = byte & 0x7F;
      // The tenth byte holds bit 63 only.
      if (shift == 63 && bits > 1) return OverlongError();
      v |= bits << shift;
      if ((byte & 0x80) == 0) return v;
    }
    return OverlongError();
  }

  static Status TruncatedError() {
    return Status::Corruption("buffer truncated during deserialization");
  }
  static Status OverlongError() {
    return Status::Corruption("varint longer than 64 bits");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Zigzag mapping of a signed delta to an unsigned varint payload: small
/// magnitudes of either sign stay small (0, -1, 1, -2 -> 0, 1, 2, 3).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Order-preserving big-endian encoding of a u64, so that byte-wise key
/// comparison matches numeric comparison. Used for rids and index keys in
/// the range-partitioned store.
inline std::string EncodeOrderedU64(uint64_t v) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(v & 0xFF);
    v >>= 8;
  }
  return out;
}

inline uint64_t DecodeOrderedU64(std::string_view s) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    v = (v << 8) | static_cast<uint8_t>(s[i]);
  }
  return v;
}

/// Order-preserving encoding of a signed 64-bit integer (flips the sign bit).
inline std::string EncodeOrderedI64(int64_t v) {
  return EncodeOrderedU64(static_cast<uint64_t>(v) ^ (uint64_t{1} << 63));
}

inline int64_t DecodeOrderedI64(std::string_view s) {
  return static_cast<int64_t>(DecodeOrderedU64(s) ^ (uint64_t{1} << 63));
}

}  // namespace tell

#endif  // TELL_COMMON_SERDE_H_
