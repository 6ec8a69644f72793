// AVX2 kernel bodies. This is the only translation unit compiled with
// -mavx2; nothing here runs unless the dispatch layer (SimdKernelsEnabled)
// confirmed the CPU reports AVX2 at runtime.

#include "core/simd_kernels.h"

#if defined(DPSP_HAVE_AVX2)

#include <immintrin.h>

namespace dpsp {

namespace simd {

namespace {

// Deinterleaves 4 packed (u, v) int32 pairs into a u lane-group and a v
// lane-group.
inline void LoadPairs4(const int32_t* p, __m128i* u, __m128i* v) {
  __m256i packed =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i perm = _mm256_permutevar8x32_epi32(
      packed, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  *u = _mm256_castsi256_si128(perm);
  *v = _mm256_extracti128_si256(perm, 1);
}

// First lane with an id outside [0, n) — the unsigned compare catches
// negatives as huge values, mirroring the scalar
// `static_cast<unsigned>(u) >= n` check. Returns 4 when all lanes pass.
inline int FirstInvalidLane(__m128i u, __m128i v, int n) {
  __m128i nv = _mm_set1_epi32(n);
  __m128i bad = _mm_or_si128(
      _mm_cmpeq_epi32(_mm_max_epu32(u, nv), u),
      _mm_cmpeq_epi32(_mm_max_epu32(v, nv), v));
  int mask = _mm_movemask_ps(_mm_castsi128_ps(bad));
  return mask == 0 ? 4 : __builtin_ctz(mask);
}

// 4 simultaneous Euler-tour LCA lookups: the vector twin of
// EulerTourLca::LcaUnchecked. All index math is exact integer arithmetic,
// so the result is identical to four scalar calls.
inline __m128i LcaLookup4(const EulerTourLca::FlatView& lca, __m128i u,
                          __m128i v) {
  const int* fv = reinterpret_cast<const int*>(lca.first_visit);
  __m128i a = _mm_i32gather_epi32(fv, u, 4);
  __m128i b = _mm_i32gather_epi32(fv, v, 4);
  __m128i lo = _mm_min_epu32(a, b);
  __m128i hi = _mm_max_epu32(a, b);
  __m128i one = _mm_set1_epi32(1);
  __m128i d = _mm_add_epi32(_mm_sub_epi32(hi, lo), one);
  // floor(log2(d)) from the float exponent. cvtepi32_ps can round d up to
  // the next power of two once d exceeds the 24-bit mantissa, so correct
  // k downward where 2^k overshoots d.
  __m128i k = _mm_sub_epi32(
      _mm_srli_epi32(_mm_castps_si128(_mm_cvtepi32_ps(d)), 23),
      _mm_set1_epi32(127));
  k = _mm_add_epi32(k, _mm_cmpgt_epi32(_mm_sllv_epi32(one, k), d));
  __m128i pow2 = _mm_sllv_epi32(one, k);
  // Cell addresses: row k starts at k << stride_shift; the two covering
  // windows start at lo and hi - 2^k + 1.
  __m128i base =
      _mm_sll_epi32(k, _mm_cvtsi32_si128(static_cast<int>(lca.stride_shift)));
  __m128i i1 = _mm_add_epi32(base, lo);
  __m128i i2 =
      _mm_add_epi32(base, _mm_add_epi32(_mm_sub_epi32(hi, pow2), one));
  const long long* tbl = reinterpret_cast<const long long*>(lca.table);
  __m256i k1 = _mm256_i32gather_epi64(tbl, i1, 8);
  __m256i k2 = _mm256_i32gather_epi64(tbl, i2, 8);
  // Keys pack (depth << 32) | vertex with depth < 2^31, so every key is
  // below 2^63 and the signed 64-bit min equals the unsigned min.
  __m256i key = _mm256_blendv_epi8(k1, k2, _mm256_cmpgt_epi64(k1, k2));
  // The low 32 bits of each key are the LCA vertex id.
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      key, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
}

// Scalar LcaUnchecked against a FlatView, for tails and invalid-id exits.
inline int32_t ScalarLca(const EulerTourLca::FlatView& lca, int u, int v) {
  uint32_t a = lca.first_visit[static_cast<size_t>(u)];
  uint32_t b = lca.first_visit[static_cast<size_t>(v)];
  if (a > b) {
    uint32_t t = a;
    a = b;
    b = t;
  }
  uint32_t k = lca.log2_floor[static_cast<size_t>(b - a + 1)];
  const uint64_t* row =
      lca.table + (static_cast<size_t>(k) << lca.stride_shift);
  uint64_t key = row[a] < row[b - (1u << k) + 1] ? row[a]
                                                 : row[b - (1u << k) + 1];
  return static_cast<int32_t>(key & 0xffffffffu);
}

}  // namespace

int TreeCombineAvx2(const EulerTourLca::FlatView& lca, const double* est,
                    const int32_t* pairs, int count, double* out) {
  int n = lca.num_vertices;
  const __m256d two = _mm256_set1_pd(2.0);
  int i = 0;
  // Four independent lane groups (16 pairs) per iteration: each group's
  // chain is two dependent gather rounds (sparse table, then est[z]), so
  // only independent groups keep the load ports saturated while a chain
  // waits on DRAM. The fixed-trip inner loops unroll completely.
  constexpr int kGroups = 4;
  for (; i + 4 * kGroups <= count; i += 4 * kGroups) {
    __m128i u[kGroups], v[kGroups];
    int bad = 0;
    for (int g = 0; g < kGroups; ++g) {
      LoadPairs4(pairs + 2 * static_cast<size_t>(i) + 8 * g, &u[g], &v[g]);
      bad |= FirstInvalidLane(u[g], v[g], n) < 4;
    }
    if (bad) break;  // finish in the 4-wide loop / scalar tail below
    __m128i z[kGroups];
    for (int g = 0; g < kGroups; ++g) z[g] = LcaLookup4(lca, u[g], v[g]);
    for (int g = 0; g < kGroups; ++g) {
      __m256d eu = _mm256_i32gather_pd(est, u[g], 8);
      __m256d ev = _mm256_i32gather_pd(est, v[g], 8);
      __m256d ez = _mm256_i32gather_pd(est, z[g], 8);
      _mm256_storeu_pd(out + i + 4 * g,
                       _mm256_sub_pd(_mm256_add_pd(eu, ev),
                                     _mm256_mul_pd(two, ez)));
    }
  }
  for (; i + 4 <= count; i += 4) {
    __m128i u, v;
    LoadPairs4(pairs + 2 * static_cast<size_t>(i), &u, &v);
    if (FirstInvalidLane(u, v, n) < 4) break;  // finish scalar below
    __m128i z = LcaLookup4(lca, u, v);
    __m256d eu = _mm256_i32gather_pd(est, u, 8);
    __m256d ev = _mm256_i32gather_pd(est, v, 8);
    __m256d ez = _mm256_i32gather_pd(est, z, 8);
    // Same IEEE order as the scalar combine: (est[u] + est[v]) -
    // (2.0 * est[z]); -ffp-contract=off keeps both sides FMA-free.
    _mm256_storeu_pd(
        out + i, _mm256_sub_pd(_mm256_add_pd(eu, ev), _mm256_mul_pd(two, ez)));
  }
  for (; i < count; ++i) {
    int u = pairs[2 * static_cast<size_t>(i)];
    int v = pairs[2 * static_cast<size_t>(i) + 1];
    if (static_cast<unsigned>(u) >= static_cast<unsigned>(n) ||
        static_cast<unsigned>(v) >= static_cast<unsigned>(n)) {
      return i;
    }
    int z = ScalarLca(lca, u, v);
    out[i] = est[static_cast<size_t>(u)] + est[static_cast<size_t>(v)] -
             2.0 * est[static_cast<size_t>(z)];
  }
  return -1;
}

void DyadicPrefixSumsAvx2(const NoisyDyadicRangeSums::FlatView& view,
                          const int* his, int count, double* out) {
  const int* offs = reinterpret_cast<const int*>(view.level_offset);
  const __m128i ones = _mm_set1_epi32(-1);
  const __m128i one = _mm_set1_epi32(1);
  int i = 0;
  for (; i + 4 <= count; i += 4) {
    __m128i iv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(his + i));
    __m256d sum = _mm256_setzero_pd();
    for (;;) {
      __m128i inactive = _mm_cmpeq_epi32(iv, _mm_setzero_si128());
      if (_mm_movemask_ps(_mm_castsi128_ps(inactive)) == 0xF) break;
      __m128i active = _mm_xor_si128(inactive, ones);
      // Isolate the lowest set bit; its float exponent is exact (it is a
      // power of two), giving the level l of this round's block.
      __m128i lowbit = _mm_and_si128(iv, _mm_sub_epi32(_mm_setzero_si128(),
                                                       iv));
      __m128i l = _mm_sub_epi32(
          _mm_srli_epi32(_mm_castps_si128(_mm_cvtepi32_ps(lowbit)), 23),
          _mm_set1_epi32(127));
      l = _mm_and_si128(l, active);  // finished lanes: clamp to level 0
      __m128i base = _mm_i32gather_epi32(offs, l, 4);
      __m128i slot = _mm_add_epi32(
          base, _mm_sub_epi32(_mm_srlv_epi32(iv, l), one));
      // Masked gather: finished lanes touch no memory; the blend (rather
      // than adding 0.0) keeps their partial sums bit-identical — adding
      // +0.0 would flip a -0.0 lane.
      __m256d active_pd =
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(active));
      __m256d vals = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                              view.blocks, slot, active_pd, 8);
      sum = _mm256_blendv_pd(sum, _mm256_add_pd(sum, vals), active_pd);
      iv = _mm_and_si128(iv, _mm_sub_epi32(iv, one));
    }
    _mm256_storeu_pd(out + i, sum);
  }
  for (; i < count; ++i) {
    // Scalar lowest-set-bit walk, same order as PrefixSumUnchecked.
    double sum = 0.0;
    for (unsigned x = static_cast<unsigned>(his[i]); x != 0; x &= x - 1) {
      int l = __builtin_ctz(x);
      sum += view.blocks[view.level_offset[static_cast<size_t>(l)] +
                         (x >> l) - 1];
    }
    out[i] = sum;
  }
}

}  // namespace simd

}  // namespace dpsp

#endif  // DPSP_HAVE_AVX2
