// XDR-style marshalling: big-endian integers, length-prefixed opaques.
// Every RPC and NAS protocol message in this codebase is real bytes encoded
// through these helpers — protocol correctness is testable on the wire.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "common/crc32.h"
#include "common/result.h"
#include "net/packet.h"

namespace ordma::rpc {

// End-to-end payload checksum (CRC-32 — common/crc32.h).
// Chainable at *any* split point: pass the previous return value as
// `state` to checksum discontiguous regions as one stream (e.g. an RPC
// header + results + RDDP-placed data), and the result is identical
// however the stream is chunked — sealer and verifier walk the same bytes
// in different pieces (pinned by tests/wire_fuzz_test.cc). Simulated
// NICs/links model CRC at the frame level; this is the end-to-end check
// that catches corruption escaping the link CRC. Bytes in simulated
// memory are checksummed in place with mem::checksum from the same seed.
inline constexpr std::uint32_t kChecksumSeed = 0x811c9dc5u;

inline std::uint32_t checksum32(std::span<const std::byte> data,
                                std::uint32_t state = kChecksumSeed) {
  return crc32_update(state, data);
}

namespace detail {
inline std::uint32_t to_be32(std::uint32_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap32(x);
  } else {
    return x;
  }
}
}  // namespace detail

// Encodes straight into a pooled buffer rep (net::BufferBuilder): the
// vector capacity is recycled through the buffer pool, so steady-state
// encoding allocates nothing and finish() hands the bytes over zero-copy.
class XdrEncoder {
 public:
  void u32(std::uint32_t x) {
    const std::uint32_t be = detail::to_be32(x);
    std::memcpy(bld_.grow(4), &be, 4);
  }
  void u64(std::uint64_t x) {
    u32(static_cast<std::uint32_t>(x >> 32));
    u32(static_cast<std::uint32_t>(x & 0xffffffffu));
  }
  void i64(std::int64_t x) { u64(static_cast<std::uint64_t>(x)); }

  void opaque(std::span<const std::byte> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  void str(std::string_view s) {
    opaque(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(s.data()), s.size()));
  }
  // Raw append without length prefix (for framing payloads whose length is
  // carried elsewhere).
  void raw(std::span<const std::byte> data) { bld_.append(data); }

  std::size_t size() const { return bld_.size(); }
  // The bytes encoded so far, for splicing into another message; the
  // storage stays pooled when this encoder dies.
  std::span<const std::byte> view() const { return bld_.view(); }
  net::Buffer finish() { return bld_.finish(); }
  std::vector<std::byte> take() { return bld_.take(); }

 private:
  net::BufferBuilder bld_;
};

class XdrDecoder {
 public:
  explicit XdrDecoder(std::span<const std::byte> data) : data_(data) {}
  explicit XdrDecoder(const net::Buffer& b) : data_(b.view()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t x;
    std::memcpy(&x, data_.data() + pos_, 4);
    pos_ += 4;
    return detail::to_be32(x);
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    const std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::span<const std::byte> opaque() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::string str() {
    auto s = opaque();
    // An empty opaque (or a truncated buffer) yields an empty span whose
    // data() may be null; constructing std::string from (nullptr, 0) is UB.
    if (s.empty()) return {};
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }
  std::span<const std::byte> rest() {
    auto s = data_.subspan(pos_);
    pos_ = data_.size();
    return s;
  }

 private:
  bool need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ordma::rpc
