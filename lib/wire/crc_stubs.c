/* The CRC-32 behind Header: IEEE 802.3 polynomial, reflected (zlib's
   crc32), over one datagram slice with its checksum field (bytes 22-25)
   read as zero.

   Two paths.  The portable one is slicing-by-8: eight 256-entry tables,
   where table j advances the CRC over a byte followed by j zero bytes,
   fold eight input bytes per step with eight independent lookups; fewer
   than eight leftover bytes go through table 0 alone.  It checksums the
   header, the tails and, on every host without PCLMULQDQ, the payload.

   The PCLMULQDQ path follows Gopal et al. ("Fast CRC Computation for
   Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in its
   bit-reflected form: four 128-bit lanes fold 64 bytes per step by
   carry-less multiplication with x^(512+-32) mod P, then one lane folds
   the rest 16 bytes at a time, a final fold takes 128 bits to 64 and a
   Barrett reduction takes 64 to the 32-bit remainder.  It runs over the
   longest 16-byte multiple of a payload of at least 64 bytes; the
   portable loop finishes the tail.  Every constant below is a residue
   x^n mod P bit-reflected and shifted left by one, except the Barrett
   quotient floor(x^64 / P) and P itself, both reflected over 33 bits.

   The caller (header.ml) checks bounds and passes the path to run; the
   external is noalloc, so the byte string cannot move during the call. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMC_CRC_X86 1
#include <immintrin.h>
#endif

enum { PORTABLE = 0, PCLMUL = 1 };

enum { CHECKSUM_OFFSET = 22, HEADER_SIZE = 26 };

static uint32_t tables[8][256];

static uint32_t load_le32(const uint8_t *p)
{
  return (uint32_t) p[0] | (uint32_t) p[1] << 8 | (uint32_t) p[2] << 16 | (uint32_t) p[3] << 24;
}

static uint32_t slice8(uint32_t crc, const uint8_t *p, size_t n)
{
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t one = crc ^ load_le32(p);
    uint32_t two = load_le32(p + 4);
    crc = tables[7][one & 0xff] ^ tables[6][(one >> 8) & 0xff] ^ tables[5][(one >> 16) & 0xff]
          ^ tables[4][one >> 24] ^ tables[3][two & 0xff] ^ tables[2][(two >> 8) & 0xff]
          ^ tables[1][(two >> 16) & 0xff] ^ tables[0][two >> 24];
  }
  for (; n > 0; p++, n--) crc = tables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc;
}

#ifdef RMC_CRC_X86
/* x * (hi:lo of k) folded onto [next]: the low half of x times k.lo and
   the high half times k.hi, both advanced past 128 bits of input. */
__attribute__((target("pclmul,sse4.1"))) static inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/* The CRC register after [n] more bytes at [p]; n >= 64 and a multiple
   of 16.  Unaligned loads, so there is no head.

   The function starts on a cache line, which also aligns this object's
   code to 64 bytes.  The C objects linked after it, the OCaml runtime
   included, then sit at fixed offsets modulo 64 whatever the size of the
   OCaml code before them.  That matters: builds that put the runtime's
   hottest function on a 64-byte boundary have read 10-18% less
   sim_exact_rlnc goodput than builds that put it 16, 32 or 48 bytes
   further on (2-vCPU Xeon).  That function is caml_string_compare, the
   memcmp behind Bytes.compare, which Np_drive's delivery scoreboard runs
   on every delivered packet. */
__attribute__((target("pclmul,sse4.1"), aligned(64))) static uint32_t
fold_pclmul(uint32_t crc, const uint8_t *p, size_t n)
{
  const __m128i *v = (const __m128i *) p;
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(v), _mm_cvtsi32_si128((int) crc));
  __m128i x1 = _mm_loadu_si128(v + 1);
  __m128i x2 = _mm_loadu_si128(v + 2);
  __m128i x3 = _mm_loadu_si128(v + 3);
  v += 4;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4); /* x^480, x^544 */
  for (; n >= 64; n -= 64, v += 4) {
    x0 = fold(x0, k1k2, _mm_loadu_si128(v));
    x1 = fold(x1, k1k2, _mm_loadu_si128(v + 1));
    x2 = fold(x2, k1k2, _mm_loadu_si128(v + 2));
    x3 = fold(x3, k1k2, _mm_loadu_si128(v + 3));
  }

  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0); /* x^96, x^160 */
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; n -= 16, v++) x0 = fold(x0, k3k4, _mm_loadu_si128(v));

  /* 128 bits to 64, appending the CRC's 32 zero bits: the low half times
     x^96 onto the high half, then the low 32 bits times x^64 onto the
     rest. */
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(k3k4, x0, 0x01));
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124); /* x^64 */
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  /* Barrett: q = (low 32 bits) * mu, remainder = x xor (low 32 of q) * P. */
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return (uint32_t) _mm_extract_epi32(_mm_xor_si128(x0, q), 1);
}
#endif

/* Builds the tables and returns the best path this host can run. */
value rmc_crc_init(value unit)
{
  (void) unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int bit = 0; bit < 8; bit++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (int j = 1; j < 8; j++)
    for (int n = 0; n < 256; n++) {
      uint32_t prev = tables[j - 1][n];
      tables[j][n] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
#ifdef RMC_CRC_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) return Val_int(PCLMUL);
#endif
  return Val_int(PORTABLE);
}

/* The CRC of the datagram at [off, off + len) of [buffer]; len >= 26. */
intnat rmc_crc_datagram(value buffer, intnat off, intnat len, intnat path)
{
  const uint8_t *d = (const uint8_t *) Bytes_val(buffer) + off;
  uint8_t header[HEADER_SIZE];
  memcpy(header, d, CHECKSUM_OFFSET);
  memset(header + CHECKSUM_OFFSET, 0, HEADER_SIZE - CHECKSUM_OFFSET);
  uint32_t crc = slice8(0xffffffffu, header, HEADER_SIZE);
  const uint8_t *p = d + HEADER_SIZE;
  size_t n = (size_t) len - HEADER_SIZE;
#ifdef RMC_CRC_X86
  if (path == PCLMUL && n >= 64) {
    size_t body = n & ~(size_t) 15;
    crc = fold_pclmul(crc, p, body);
    p += body;
    n -= body;
  }
#else
  (void) path;
#endif
  return (intnat) (slice8(crc, p, n) ^ 0xffffffffu);
}

value rmc_crc_datagram_byte(value buffer, value off, value len, value path)
{
  return Val_long(rmc_crc_datagram(buffer, Long_val(off), Long_val(len), Long_val(path)));
}
