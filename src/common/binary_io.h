// Little-endian binary encoding over growable byte buffers, used by the
// cluster-blob serializer and the remote-memory metadata block.
//
// Encoding is explicit (no struct memcpy of host layouts) so blobs are
// portable and versionable.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace dhnsw {

/// Appends primitive values to a byte vector in little-endian order.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutI32(int32_t v) { PutLE(static_cast<uint32_t>(v)); }
  void PutF32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutLE(bits);
  }
  void PutBytes(std::span<const uint8_t> bytes) {
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void PutF32Array(std::span<const float> values) {
    for (float v : values) PutF32(v);
  }
  void PutU32Array(std::span<const uint32_t> values) {
    for (uint32_t v : values) PutU32(v);
  }

  /// Pads with zero bytes until the buffer size is a multiple of `alignment`.
  void AlignTo(size_t alignment) {
    while (out_->size() % alignment != 0) out_->push_back(0);
  }

  size_t size() const noexcept { return out_->size(); }

 private:
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<uint8_t>* out_;
};

/// Reads primitives back; every read is bounds-checked and returns a Status
/// on truncation so corrupt remote reads fail loudly instead of UB.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  size_t offset() const noexcept { return pos_; }
  size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ >= data_.size(); }

  Status GetU8(uint8_t* v) { return GetLE(v); }
  Status GetU16(uint16_t* v) { return GetLE(v); }
  Status GetU32(uint32_t* v) { return GetLE(v); }
  Status GetU64(uint64_t* v) { return GetLE(v); }
  Status GetI32(int32_t* v) {
    uint32_t bits = 0;
    DHNSW_RETURN_IF_ERROR(GetLE(&bits));
    *v = static_cast<int32_t>(bits);
    return Status::Ok();
  }
  Status GetF32(float* v) {
    uint32_t bits = 0;
    DHNSW_RETURN_IF_ERROR(GetLE(&bits));
    std::memcpy(v, &bits, sizeof *v);
    return Status::Ok();
  }
  Status GetBytes(std::span<uint8_t> out) {
    if (remaining() < out.size()) return Truncated("bytes");
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
    return Status::Ok();
  }
  Status GetF32Array(std::span<float> out) {
    if (remaining() < out.size() * 4) return Truncated("f32 array");
    for (float& v : out) DHNSW_RETURN_IF_ERROR(GetF32(&v));
    return Status::Ok();
  }
  Status GetU32Array(std::span<uint32_t> out) {
    if (remaining() < out.size() * 4) return Truncated("u32 array");
    for (uint32_t& v : out) DHNSW_RETURN_IF_ERROR(GetU32(&v));
    return Status::Ok();
  }
  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::Ok();
  }
  Status AlignTo(size_t alignment) {
    size_t rem = pos_ % alignment;
    return rem == 0 ? Status::Ok() : Skip(alignment - rem);
  }

 private:
  template <typename T>
  Status GetLE(T* v) {
    if (remaining() < sizeof(T)) return Truncated("primitive");
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>(out | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    *v = out;
    return Status::Ok();
  }
  Status Truncated(const char* what) {
    return Status::Corruption(std::string("binary read past end while reading ") + what);
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace dhnsw
