/* The GF(2^8) byte kernels behind Gf: dst[i] ^= c * src[i] (mul_add) and
   dst[i] = c * src[i] (mul) over the window [pos, pos + len) of two
   OCaml byte strings.

   Multiplying by a constant c is linear over GF(2): c * x is an 8x8 bit
   matrix times the bit vector x.  The GFNI path applies that matrix to 64
   bytes at once with one GF2P8AFFINEQB on an AVX-512 vector.  Its native
   polynomial (0x11B) does not matter: the instruction only sees the
   matrix, which is built from this field's products, so it works for any
   reduction polynomial.

   The SSSE3 path uses the split-nibble technique of Plank, Greenan and
   Miller ("Screaming Fast Galois Field Arithmetic Using Intel SIMD
   Instructions", FAST 2013): c * x = c * (x & 0x0f) xor c * (x & 0xf0),
   and each half is a 16-entry lookup that one SSSE3 pshufb performs for
   16 bytes at once.  It also finishes the 16-byte blocks the GFNI loop
   leaves.  A byte-table loop finishes the tail and is the whole kernel on
   every other architecture.  Every table and matrix is built from the
   OCaml product table, so the field has one definition.

   The caller (gf.ml) checks bounds and coefficient range, and passes the
   path to run; the externals are noalloc, so the byte strings cannot move
   during the call. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RMC_GF_X86 1
#include <immintrin.h>
#endif

enum { PORTABLE = 0, SSSE3 = 1, GFNI = 2 };

static uint8_t products[256][256];  /* products[c][x] = c * x */
static uint8_t nibbles[256][2][16]; /* c * x and c * (x << 4), x < 16 */
static uint64_t matrices[256];      /* c * x as a GF2P8AFFINEQB operand */

#ifdef RMC_GF_X86
/* Each path handles the longest prefix that is a whole number of its
   vectors and returns its length; unaligned loads, so there is no head.
   The GFNI path hands the 16-byte blocks after its last 64-byte vector to
   the SSSE3 loop. */

__attribute__((target("ssse3"))) static size_t
kernel_ssse3(uint8_t *d, const uint8_t *s, size_t n, int c, int acc)
{
  const __m128i lo = _mm_loadu_si128((const __m128i *) nibbles[c][0]);
  const __m128i hi = _mm_loadu_si128((const __m128i *) nibbles[c][1]);
  const __m128i mask = _mm_set1_epi8(0x0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i x = _mm_loadu_si128((const __m128i *) (s + i));
    __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo, _mm_and_si128(x, mask)),
                              _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), mask)));
    if (acc) p = _mm_xor_si128(p, _mm_loadu_si128((const __m128i *) (d + i)));
    _mm_storeu_si128((__m128i *) (d + i), p);
  }
  return i;
}

__attribute__((target("gfni,avx512f,avx512bw"))) static size_t
kernel_gfni(uint8_t *d, const uint8_t *s, size_t n, int c, int acc)
{
  const __m512i a = _mm512_set1_epi64((long long) matrices[c]);
  size_t i = 0;
  if (acc)
    for (; i + 64 <= n; i += 64) {
      __m512i p = _mm512_gf2p8affine_epi64_epi8(_mm512_loadu_si512(s + i), a, 0);
      _mm512_storeu_si512(d + i, _mm512_xor_si512(p, _mm512_loadu_si512(d + i)));
    }
  else
    for (; i + 64 <= n; i += 64)
      _mm512_storeu_si512(d + i, _mm512_gf2p8affine_epi64_epi8(_mm512_loadu_si512(s + i), a, 0));
  return i + kernel_ssse3(d + i, s + i, n - i, c, acc);
}
#endif

/* [acc] selects dst ^= c * src over dst = c * src.  dst and src are
   either disjoint or the same window (Gf.mul_into ~dst:y ~src:y); every
   path reads a vector or byte before it writes it. */
static void kernel(intnat path, uint8_t *d, const uint8_t *s, size_t n, int c, int acc)
{
  size_t i = 0;
#ifdef RMC_GF_X86
  if (path == GFNI) i = kernel_gfni(d, s, n, c, acc);
  else if (path == SSSE3) i = kernel_ssse3(d, s, n, c, acc);
#else
  (void) path;
#endif
  const uint8_t *t = products[c];
  if (acc)
    for (; i < n; i++) d[i] ^= t[s[i]];
  else
    for (; i < n; i++) d[i] = t[s[i]];
}

/* Copies the OCaml product table (row c at byte 256 c), derives the
   nibble tables and matrices from it, and returns the best path this host
   can run.  Byte 7 - i of a matrix is the row for bit i of the product:
   bit j of that row is bit i of c * 2^j.  libgcc's avx512bw check also
   tests that the OS saves the 512-bit registers. */
value rmc_gf_kernel_init(value mul256)
{
  memcpy(products, Bytes_val(mul256), sizeof products);
  for (int c = 0; c < 256; c++) {
    for (int x = 0; x < 16; x++) {
      nibbles[c][0][x] = products[c][x];
      nibbles[c][1][x] = products[c][x << 4];
    }
    for (int b = 0; b < 64; b++)
      matrices[c] |= (uint64_t) (products[c][1 << (b & 7)] >> (7 - b / 8) & 1) << b;
  }
#ifdef RMC_GF_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512bw")) return Val_int(GFNI);
  if (__builtin_cpu_supports("ssse3")) return Val_int(SSSE3);
#endif
  return Val_int(PORTABLE);
}

value rmc_gf_mul_add(value dst, value src, intnat pos, intnat len, intnat c, intnat path)
{
  if (c != 0) kernel(path, Bytes_val(dst) + pos, Bytes_val(src) + pos, len, c, 1);
  return Val_unit;
}

value rmc_gf_mul(value dst, value src, intnat pos, intnat len, intnat c, intnat path)
{
  uint8_t *d = Bytes_val(dst) + pos;
  const uint8_t *s = Bytes_val(src) + pos;
  if (c == 0) memset(d, 0, len);
  else if (c == 1) memmove(d, s, len);
  else kernel(path, d, s, len, c, 0);
  return Val_unit;
}

value rmc_gf_mul_add_byte(value *argv, int argn)
{
  (void) argn;
  return rmc_gf_mul_add(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                        Long_val(argv[4]), Long_val(argv[5]));
}

value rmc_gf_mul_byte(value *argv, int argn)
{
  (void) argn;
  return rmc_gf_mul(argv[0], argv[1], Long_val(argv[2]), Long_val(argv[3]),
                    Long_val(argv[4]), Long_val(argv[5]));
}
