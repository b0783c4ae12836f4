// Byte-level wire format helpers.
//
// Every protocol in the project (gcs, pbs, joshua) serializes its messages to
// real byte buffers through Writer/Reader, so the network model charges
// serialization time for the actual encoded size and tests can round-trip
// encodings. Integers are little-endian fixed width; strings and blobs are
// u32-length-prefixed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.h"

namespace net {

using sim::Payload;

/// Thrown by Reader on truncated or malformed input.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  Writer() = default;

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { raw(&v, sizeof v); }
  void u32(uint32_t v) { raw(&v, sizeof v); }
  void u64(uint64_t v) { raw(&v, sizeof v); }
  void i64(int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Reserves the blob's exact room first when it outgrows the buffer, so
  /// framing a multi-megabyte body leaves no doubling slack in take().
  void bytes(const Payload& b) {
    size_t need = buf_.size() + sizeof(uint32_t) + b.size();
    if (need > buf_.capacity())
      buf_.reserve(std::max(need, 2 * buf_.capacity()));
    u32(static_cast<uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& items, Fn encode_one) {
    u32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) encode_one(*this, item);
  }

  /// Freeze the built bytes into an immutable shared Payload (no copy).
  Payload take() { return Payload::adopt(std::move(buf_)); }
  size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const Payload& buf) : buf_(buf) {}

  uint8_t u8() { uint8_t v; raw(&v, sizeof v); return v; }
  uint16_t u16() { uint16_t v; raw(&v, sizeof v); return v; }
  uint32_t u32() { uint32_t v; raw(&v, sizeof v); return v; }
  uint64_t u64() { uint64_t v; raw(&v, sizeof v); return v; }
  int64_t i64() { int64_t v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }
  bool boolean() { return u8() != 0; }

  std::string str() {
    uint32_t n = u32();
    check(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Nested message body: a zero-copy slice sharing the parent buffer.
  Payload bytes() {
    uint32_t n = u32();
    check(n);
    Payload b = buf_.slice(pos_, n);
    pos_ += n;
    return b;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn decode_one) {
    uint32_t n = u32();
    // Sanity cap: a count can never exceed the remaining byte count.
    if (n > remaining()) throw WireError("vector count exceeds buffer");
    std::vector<T> out;
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) out.push_back(decode_one(*this));
    return out;
  }

  size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

  /// Throws unless the whole buffer was consumed (catches format drift).
  void expect_done() const {
    if (!done()) throw WireError("trailing bytes after message");
  }

 private:
  void check(size_t n) const {
    if (n > remaining()) throw WireError("read past end of buffer");
  }
  void raw(void* p, size_t n) {
    check(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const Payload& buf_;
  size_t pos_ = 0;
};

}  // namespace net
