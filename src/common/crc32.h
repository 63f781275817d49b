// CRC-32 (ISO-HDLC, reflected polynomial 0xEDB88320): carry-less-multiply
// folding where the CPU has it, slicing-by-8 everywhere else.
//
// This backs the end-to-end message checksum (rpc::checksum32). The
// previous implementation was byte-serial FNV-1a: a dependent multiply per
// byte (~4 cycles/byte of pure latency), which profiling showed was the
// single largest cost in a protocol sweep — every data block is
// checksummed at least twice (sealed by the sender, verified by the
// receiver). Slicing-by-8 breaks the byte dependency chain: eight table
// lookups per 8-byte word, all independent, ~0.5 cycles/byte.
//
// Why CRC rather than a faster hash: the checksum must be *chainable at
// arbitrary split points* — `crc32(a ++ b) == crc32(b, crc32(a))` for any
// split — because sealer and verifier walk the same byte stream in
// different chunks (e.g. an RDDP reply is sealed over header+results+data
// in one pass but verified over header+results then the separately-landed
// bulk bytes). CRC's register-update formulation gives that for free, and
// its linearity guarantees detection of any single corrupted byte and any
// burst shorter than 32 bits — strictly stronger than FNV for the
// single-flip corruptions the fault injector produces. The property is
// pinned by tests/wire_fuzz_test.cc.
//
// Why folding: even at 0.5 cycles/byte the table loop was still the
// largest host cost of a 64 KB NFS read (the checksum runs over every
// payload byte twice), because eight loads per word saturate the load
// ports. CRC is linear over GF(2), so a long message can be split into
// 128-bit lanes that are each multiplied forward ("folded") by a constant
// x^k mod P with PCLMULQDQ, four lanes at a time, and reduced to 32 bits
// once at the end with a Barrett reduction. The constants and the
// reduction follow Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (the same ones Linux crc32-pclmul and zlib's
// crc32_simd use), for this reflected polynomial. That runs at roughly
// ten times the table loop's rate.
//
// Nothing a caller sees changes: same polynomial, same register semantics
// (a plain register update, no pre- or post-inversion), bit-identical
// results for every input and every split. crc32_update picks the folding
// kernel at run time when the CPU reports PCLMULQDQ and the input is at
// least 64 bytes; it folds the 16-byte-multiple prefix and hands the tail
// to the table loop. Short inputs (RPC headers), other architectures and
// x86 CPUs without the instruction run the table loop, which also stays
// the reference the tests compare the kernel against. There is no switch
// to pick a path by hand: both produce the same bits.
//
// The tables are computed at compile time (constexpr), so there is no init
// ordering, no runtime generation, and the 8 KiB lands in .rodata shared
// across threads (read-only: no false sharing).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ordma {

namespace detail {

struct Crc32Tables {
  std::uint32_t t[8][256];
};

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
    }
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int s = 1; s < 8; ++s) {
      tb.t[s][i] = (tb.t[s - 1][i] >> 8) ^ tb.t[0][tb.t[s - 1][i] & 0xff];
    }
  }
  return tb;
}

inline constexpr Crc32Tables kCrc32 = make_crc32_tables();

// Slicing-by-8 register update: the portable path and the reference.
inline std::uint32_t crc32_update_table(std::uint32_t crc,
                                        std::span<const std::byte> data) {
  const auto& t = kCrc32.t;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
            t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  while (n--) {
    crc = (crc >> 8) ^ t[0][(crc ^ std::to_integer<std::uint32_t>(*p++)) &
                            0xff];
  }
  return crc;
}

// Inputs shorter than this never reach the folding kernel: it needs four
// 16-byte lanes to start.
inline constexpr std::size_t kCrc32FoldMin = 64;

// True when this process's CPU runs the PCLMULQDQ kernel. Set once during
// static initialisation (crc32.cc); anything checksummed before that runs
// the table loop, which gives the same bits.
extern const bool crc32_has_clmul;

// Folding kernel: the register update over `n` bytes, where n >= 64 and
// n is a multiple of 16. Only callable when crc32_has_clmul is true.
std::uint32_t crc32_fold_clmul(std::uint32_t crc, const std::byte* p,
                               std::size_t n);

}  // namespace detail

// Advance the CRC register `crc` over `data`. Plain register update with no
// pre/post inversion, so updates compose: crc32_update over a byte stream
// yields the same register whatever the chunking.
inline std::uint32_t crc32_update(std::uint32_t crc,
                                  std::span<const std::byte> data) {
  if (data.size() >= detail::kCrc32FoldMin && detail::crc32_has_clmul) {
    const std::size_t bulk = data.size() & ~std::size_t{15};
    crc = detail::crc32_fold_clmul(crc, data.data(), bulk);
    data = data.subspan(bulk);
  }
  return detail::crc32_update_table(crc, data);
}

}  // namespace ordma
