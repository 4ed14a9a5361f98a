#pragma once
// Panel packing for the blocked GEMM. Packs handle transposition and zero-pad
// partial micropanels so the microkernel always sees full MR/NR tiles.
//
// Every routine is templated on the microkernel type K (blas/microkernel.h),
// whose MR/NR fix the micropanel shapes, so plan.cpp instantiates one packing
// per kernel.
//
// Packing is exposed at two granularities: whole-block (pack_a / pack_b, one
// mc x kc or kc x nc cache block) and single-micropanel (pack_a_panel /
// pack_b_panel), which the shared-pack parallel gemm uses to split one block's
// packing across an OpenMP team, and the prepacked-plan layer uses to lay out
// an entire operand once (blas/plan.h).

#include <algorithm>

#include "blas/microkernel.h"
#include "support/matrix.h"

namespace apa::blas::detail {

/// Cache-blocking parameters (sized for ~32 KB L1 / ~256 KB-1 MB L2); MC/NC
/// are derived as register-tile multiples so they track the SIMD width. Shared
/// by the blocked gemm and the prepacked-panel layout, which must agree on the
/// block geometry exactly. KC does not depend on the kernel, so every kernel
/// accumulates each output element over the same k blocks in the same order.
template <class K>
struct BlockShape {
  static constexpr index_t kMc = (128 / K::kMr) * K::kMr;
  static constexpr index_t kKc = 256;
  static constexpr index_t kNc = (2048 / K::kNr) * K::kNr;
};

/// Packs one MR-row micropanel of op(A): rows [row0, row0 + rows) and columns
/// [col0, col0 + kc) of the logical operand, zero-padded to MR rows, into
/// `packed` with layout packed[k][i] (i fastest). `trans` means the stored
/// matrix is the transpose of the logical operand, i.e. logical (i, k) reads
/// storage (k, i).
template <class K, class T>
void pack_a_panel(bool trans, const T* a, index_t lda, index_t row0, index_t col0,
                  index_t rows, index_t kc, T* packed) {
  constexpr index_t mr = K::kMr;
  for (index_t k = 0; k < kc; ++k) {
    const index_t c = col0 + k;
    for (index_t i = 0; i < rows; ++i) {
      const index_t r = row0 + i;
      *packed++ = trans ? a[c * lda + r] : a[r * lda + c];
    }
    for (index_t i = rows; i < mr; ++i) *packed++ = T{0};
  }
}

/// Packs one NR-column micropanel of op(B): rows [row0, row0 + kc) and columns
/// [col0, col0 + cols), zero-padded to NR columns, with layout packed[k][j]
/// (j fastest).
template <class K, class T>
void pack_b_panel(bool trans, const T* b, index_t ldb, index_t row0, index_t col0,
                  index_t kc, index_t cols, T* packed) {
  constexpr index_t nr = K::kNr;
  for (index_t k = 0; k < kc; ++k) {
    const index_t r = row0 + k;
    for (index_t j = 0; j < cols; ++j) {
      const index_t c = col0 + j;
      *packed++ = trans ? b[c * ldb + r] : b[r * ldb + c];
    }
    for (index_t j = cols; j < nr; ++j) *packed++ = T{0};
  }
}

/// Packs an mc x kc block of op(A) starting at (row0, col0) of the logical
/// operand into micropanels of MR rows: panel p holds rows [p*MR, p*MR+MR).
template <class K, class T>
void pack_a(bool trans, const T* a, index_t lda, index_t row0, index_t col0, index_t mc,
            index_t kc, T* packed) {
  constexpr index_t mr = K::kMr;
  for (index_t p0 = 0; p0 < mc; p0 += mr) {
    pack_a_panel<K>(trans, a, lda, row0 + p0, col0, std::min(mr, mc - p0), kc,
                    packed + (p0 / mr) * mr * kc);
  }
}

/// Packs a kc x nc block of op(B) starting at (row0, col0) into micropanels of
/// NR columns: panel q holds columns [q*NR, q*NR+NR).
template <class K, class T>
void pack_b(bool trans, const T* b, index_t ldb, index_t row0, index_t col0, index_t kc,
            index_t nc, T* packed) {
  constexpr index_t nr = K::kNr;
  for (index_t q0 = 0; q0 < nc; q0 += nr) {
    pack_b_panel<K>(trans, b, ldb, row0, col0 + q0, kc, std::min(nr, nc - q0),
                    packed + (q0 / nr) * nr * kc);
  }
}

}  // namespace apa::blas::detail
