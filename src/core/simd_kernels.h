// AVX2 batch kernels for the fused DistanceInto hot paths.
//
// Each kernel is the vector twin of one scalar batch loop, operating on
// the flat released buffers (EulerTourLca::FlatView and the dyadic block
// array) through gathers. The kernels are bit-identical to their scalar
// twins by construction: integer index math is exact, and every
// floating-point combine uses the same IEEE operation order as the scalar
// loop (enforced repo-wide with -ffp-contract=off).
// tests/simd_conformance_test.cc asserts the identity across every
// registry oracle.
//
// This header is always safe to include; the definitions exist only when
// the toolchain compiled the AVX2 translation unit (DPSP_HAVE_AVX2), and
// call sites dispatch per call on SimdKernelsEnabled(). Index-width
// contract: every gathered index must fit int32 — callers guard with
// EulerTourLca::SimdCompatible().

#ifndef DPSP_CORE_SIMD_KERNELS_H_
#define DPSP_CORE_SIMD_KERNELS_H_

#include <cstdint>

#include "core/range_sums.h"
#include "graph/tree.h"

namespace dpsp {

namespace simd {

#if defined(DPSP_HAVE_AVX2)

/// Batched LCA: out_lca[i] = LCA of pairs[2i], pairs[2i+1] (pairs is the
/// flattened (u, v) int array, 2 ints per query). Validates ids like the
/// scalar loop: on the first out-of-range pair, results for every earlier
/// pair are written and its index is returned; -1 means all `count` pairs
/// were valid and written.
int LcaBatchAvx2(const EulerTourLca::FlatView& lca, const int32_t* pairs,
                 int count, int32_t* out_lca);

/// Fused tree-distance kernel: out[i] = est[u] + est[v] - 2 * est[lca],
/// the TreeAllPairsOracle combine, with the LCA lookup inlined. Same
/// validation contract as LcaBatchAvx2.
int TreeCombineAvx2(const EulerTourLca::FlatView& lca, const double* est,
                    const int32_t* pairs, int count, double* out);

/// Batched dyadic prefix sums: out[i] = sum of the noisy blocks covering
/// [0, his[i]), added lowest-set-bit first per lane — the scalar
/// PrefixSumUnchecked walk order, so results are bit-identical. Callers
/// guarantee 0 <= his[i] <= size.
void DyadicPrefixSumsAvx2(const NoisyDyadicRangeSums::FlatView& view,
                          const int* his, int count, double* out);

#endif  // DPSP_HAVE_AVX2

}  // namespace simd

}  // namespace dpsp

#endif  // DPSP_CORE_SIMD_KERNELS_H_
