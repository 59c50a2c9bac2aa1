#ifndef GENALG_BASE_BYTES_H_
#define GENALG_BASE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace genalg {

/// Append-only little-endian binary encoder used by the compact,
/// pointer-free storage representations (paper Sec. 4.4: GDT values must be
/// "embedded into compact storage areas which can be efficiently transferred
/// between main memory and disk").
class BytesWriter {
 public:
  BytesWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// Unsigned LEB128-style varint; 1 byte for values < 128.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  /// Raw bytes with no length prefix.
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }

 private:
  void PutLittleEndian(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Sequential decoder over a borrowed byte span; every read is
/// bounds-checked and returns a Status/Result rather than crashing on
/// corrupt input (warehouse pages come from disk).
class BytesReader {
 public:
  BytesReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit BytesReader(const std::vector<uint8_t>& buf)
      : BytesReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= size_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }
  Result<uint16_t> GetU16() { return GetLittleEndian<uint16_t>(2); }
  Result<uint32_t> GetU32() { return GetLittleEndian<uint32_t>(4); }
  Result<uint64_t> GetU64() { return GetLittleEndian<uint64_t>(8); }
  Result<int64_t> GetI64() {
    auto r = GetU64();
    if (!r.ok()) return r.status();
    return static_cast<int64_t>(*r);
  }
  Result<double> GetF64() {
    auto r = GetU64();
    if (!r.ok()) return r.status();
    double v;
    uint64_t bits = *r;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (remaining() < 1) return Truncated("varint");
      if (shift >= 64) {
        return Status::Corruption("varint longer than 64 bits");
      }
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  Result<std::string> GetString() {
    auto len = GetVarint();
    if (!len.ok()) return len.status();
    if (remaining() < *len) return Truncated("string body");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(*len));
    pos_ += static_cast<size_t>(*len);
    return s;
  }

  /// Reads n raw bytes into out.
  Status GetRaw(void* out, size_t n) {
    if (remaining() < n) return Truncated("raw bytes");
    // memcpy needs non-null pointers even when n == 0, and reading into
    // an empty buffer passes its null data().
    if (n == 0) return Status::OK();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Skips n bytes.
  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  template <typename T>
  Result<T> GetLittleEndian(int bytes) {
    if (remaining() < static_cast<size_t>(bytes)) return Truncated("int");
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return static_cast<T>(v);
  }

  Status Truncated(const char* what) const {
    return Status::Corruption(std::string("truncated buffer reading ") +
                              what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace genalg

#endif  // GENALG_BASE_BYTES_H_
