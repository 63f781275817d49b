// PCLMULQDQ folding kernel for the reflected CRC-32 register update
// (common/crc32.h explains when it runs and why).
#include "common/crc32.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ORDMA_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define ORDMA_CRC32_CLMUL 0
#endif

namespace ordma::detail {

#if ORDMA_CRC32_CLMUL

namespace {

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") != 0;
}

__m128i load(const std::byte* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// lane * x^(fold distance): low half times k.lo, high half times k.hi.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i lane,
                                                      __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                       _mm_clmulepi64_si128(lane, k, 0x11));
}

}  // namespace

const bool crc32_has_clmul = cpu_has_clmul();

// Fold constants for P = 0x104C11DB7, bit-reflected, from Intel's paper:
// k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P (fold four lanes by
// 512 bits), k3 = x^(128+32) mod P, k4 = x^(128-32) mod P (fold one lane by
// 128 bits), k5 = x^64 mod P (96 -> 64 bits), and for the Barrett step
// mu = floor(x^64 / P) and P itself. Each is bit-reflected (the k's also
// shifted left by one) to work on the reflected register.
__attribute__((target("pclmul"))) std::uint32_t crc32_fold_clmul(
    std::uint32_t crc, const std::byte* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;

  // Four independent lanes, 64 bytes per iteration.
  while (n >= 64) {
    x0 = _mm_xor_si128(fold(x0, k1k2), load(p));
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 48));
    p += 64;
    n -= 64;
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x0 = _mm_xor_si128(fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(fold(x0, k3k4), x3);
  while (n >= 16) {
    x0 = _mm_xor_si128(fold(x0, k3k4), load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits (this also appends the 32 zero bits a CRC implies).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(k3k4, x0, 0x01));
  // 64 -> 32 bits.
  x1 = _mm_and_si128(x0, mask32);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(x1, k5, 0x00));
  // Barrett reduction to the 32-bit register.
  x1 = _mm_and_si128(x0, mask32);
  x1 = _mm_clmulepi64_si128(x1, poly_mu, 0x10);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, x1);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#else  // no PCLMULQDQ on this target: crc32_update never calls the kernel.

const bool crc32_has_clmul = false;

std::uint32_t crc32_fold_clmul(std::uint32_t crc, const std::byte* p,
                               std::size_t n) {
  return crc32_update_table(crc, {p, n});
}

#endif

}  // namespace ordma::detail
