#pragma once
// Panel packing for the blocked GEMM. Packs handle transposition and zero-pad
// partial micropanels so the microkernel always sees full MR/NR tiles.
//
// Every routine is templated on the microkernel type K (blas/microkernel.h),
// whose MR/NR fix the micropanel shapes, so plan.cpp instantiates one packing
// per kernel.
//
// A packed operand is a linear combination of stored views (blas::Scaled
// terms): a plain operand is the one-term list with coefficient 1, and an APA
// product's operand (sum of coefficient x block) is gathered straight into the
// micropanels, with no combined temporary (the BLIS "fused packing" of Huang
// et al., "Strassen's Algorithm Reloaded", SC16). Each packed element is
// rounded exactly as the write-once combine (blas/combine.h) rounds it:
//
//   - stored untransposed: CombineRows' expression, c0*x0 + c1*x1 + ... for
//     up to 4 terms; beyond that the first two terms as one expression, each
//     further term accumulated in its own pass;
//   - stored transposed: TransposedRows' order, the first term written, each
//     further term accumulated in its own pass.
//
// The gathers run through run_for_host (blas/isa.h) like the combines, so the
// FMA contraction of those expressions is the same in every build.
//
// pack_a / pack_b pack one cache block (mc x kc, kc x nc) of whole
// micropanels; the shared-pack parallel gemm calls them one micropanel at a
// time (mc <= MR, nc <= NR) to split a block's packing across an OpenMP team,
// and the prepacked-plan layer calls them per block to lay out an entire
// operand once (blas/plan.h).

#include <algorithm>
#include <span>

#include "blas/combine.h"
#include "blas/isa.h"
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

/// out[0, len) = the terms' stored row r, columns [c, c + len), combined: the
/// first `Lead` terms as one left-to-right expression, then each further term
/// accumulated in its own pass (out[j] += ct * xt[j]). Lead is 1 to 4.
template <int Lead, class T>
[[gnu::always_inline]] inline void gather_row(std::span<const Scaled<T>> terms,
                                              index_t r, index_t c, index_t len,
                                              T* __restrict out) {
  const T c0 = terms[0].coeff;
  const T* x0 = terms[0].view.data + r * terms[0].view.ld + c;
  if constexpr (Lead == 1) {
    for (index_t j = 0; j < len; ++j) out[j] = c0 * x0[j];
  } else {
    const T c1 = terms[1].coeff;
    const T* x1 = terms[1].view.data + r * terms[1].view.ld + c;
    if constexpr (Lead == 2) {
      for (index_t j = 0; j < len; ++j) out[j] = c0 * x0[j] + c1 * x1[j];
    } else {
      const T c2 = terms[2].coeff;
      const T* x2 = terms[2].view.data + r * terms[2].view.ld + c;
      if constexpr (Lead == 3) {
        for (index_t j = 0; j < len; ++j) {
          out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j];
        }
      } else {
        static_assert(Lead == 4);
        const T c3 = terms[3].coeff;
        const T* x3 = terms[3].view.data + r * terms[3].view.ld + c;
        for (index_t j = 0; j < len; ++j) {
          out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j] + c3 * x3[j];
        }
      }
    }
  }
  for (std::size_t t = Lead; t < terms.size(); ++t) {
    const T ct = terms[t].coeff;
    const T* xt = terms[t].view.data + r * terms[t].view.ld + c;
    for (index_t j = 0; j < len; ++j) out[j] += ct * xt[j];
  }
}

/// Prefetches the terms' stored row r, columns [c, c + len). Where the gathers
/// read the source a few hundred bytes of one row at a time before moving to
/// another row, the hardware prefetchers lose the stream; the terms' blocks
/// then come from the far caches at full latency.
template <class T>
[[gnu::always_inline]] inline void prefetch_row(std::span<const Scaled<T>> terms,
                                                index_t r, index_t c, index_t len) {
  constexpr index_t kLine = 64 / static_cast<index_t>(sizeof(T));
  for (const Scaled<T>& t : terms) {
    const T* row = t.view.data + r * t.view.ld + c;
    for (index_t j = 0; j < len; j += kLine) __builtin_prefetch(row + j);
  }
}

/// Calls Body::template untransposed<Lead>(args...) with the expression arity
/// of the untransposed combine for `arity` terms (all of them up to 4, else
/// the leading two), so each arity's loops are compiled straight-line.
template <class Body, class... Args>
[[gnu::always_inline]] inline void with_lead(std::size_t arity, Args... args) {
  switch (arity) {
    case 1: Body::template untransposed<1>(args...); return;
    case 3: Body::template untransposed<3>(args...); return;
    case 4: Body::template untransposed<4>(args...); return;
    default: Body::template untransposed<2>(args...); return;
  }
}

/// Packs the mc x kc block of op(A) at logical (row0, col0) into micropanels
/// of MR rows: panel p holds rows [p*MR, p*MR + MR) with layout
/// packed[p][k][i] (i fastest), zero-padded to MR rows; mc is at most MC.
/// `trans` means every term's stored view is the transpose of the logical
/// operand, i.e. logical (i, k) reads storage (k, i). Every combination is
/// gathered along the stored rows, the contiguous direction.
template <class K>
struct PackA {
  static constexpr index_t kMr = K::kMr;

  template <class T>
  [[gnu::always_inline]] static void run(std::span<const Scaled<T>> terms, bool trans,
                                         index_t row0, index_t col0, index_t mc,
                                         index_t kc, T* packed) {
    if (!trans) {
      with_lead<PackA>(terms.size(), terms, row0, col0, mc, kc, packed);
      return;
    }
    // Stored row col0 + k holds logical column k; MR contiguous values of it
    // fill one k-slice of a panel.
    if (mc <= kMr) {
      // One panel (the shared-pack parallel gemm packs a micropanel per
      // call): gather each k straight into it. For a one-term 1536^2 operand
      // (AVX-512 geometry) that measured 4.8 ms, staging it 8.6 ms.
      for (index_t k = 0; k < kc; ++k) {
        T* dst = packed + k * kMr;
        gather_row<1>(terms, col0 + k, row0, mc, dst);
        for (index_t i = mc; i < kMr; ++i) dst[i] = T{0};
      }
      return;
    }
    // A whole block: combine each k's mc-run once into a staging row, then
    // deal it out across the panels; the rows two k ahead are prefetched.
    // Walking the block panel by panel instead rereads each stored row's
    // lines once per panel: 3.0 against 1.6 ms for a one-term 1536^2 operand.
    constexpr index_t kAhead = 2;
    alignas(64) T run[BlockShape<K>::kMc];
    for (index_t k = 0; k < kc; ++k) {
      if (k + kAhead < kc) prefetch_row(terms, col0 + k + kAhead, row0, mc);
      gather_row<1>(terms, col0 + k, row0, mc, run);
      for (index_t p0 = 0; p0 < mc; p0 += kMr) {
        const index_t rows = std::min(kMr, mc - p0);
        T* dst = packed + p0 * kc + k * kMr;
        if (rows == kMr) {
          // A fixed-length copy the compiler lays out as whole vectors.
          for (index_t i = 0; i < kMr; ++i) dst[i] = run[p0 + i];
          continue;
        }
        for (index_t i = 0; i < rows; ++i) dst[i] = run[p0 + i];
        for (index_t i = rows; i < kMr; ++i) dst[i] = T{0};
      }
    }
  }

  /// Stored row row0 + i holds logical row i, which the panel lays out with
  /// stride MR: the terms are combined an MR x kTile tile at a time, with
  /// contiguous loads, in an L1 staging buffer that is then scattered into
  /// the panel. Each row's next tile is prefetched as the row is gathered.
  template <int Lead, class T>
  [[gnu::always_inline]] static void untransposed(std::span<const Scaled<T>> terms,
                                                  index_t row0, index_t col0, index_t mc,
                                                  index_t kc, T* packed) {
    constexpr index_t kTile = 64;
    alignas(64) T tile[kMr][kTile];
    for (index_t p0 = 0; p0 < mc; p0 += kMr) {
      const index_t rows = std::min(kMr, mc - p0);
      T* panel = packed + p0 * kc;
      for (index_t k0 = 0; k0 < kc; k0 += kTile) {
        const index_t w = std::min(kTile, kc - k0);
        for (index_t i = 0; i < rows; ++i) {
          if (k0 + kTile < kc) {
            prefetch_row(terms, row0 + p0 + i, col0 + k0 + kTile,
                         std::min(kTile, kc - k0 - kTile));
          }
          gather_row<Lead>(terms, row0 + p0 + i, col0 + k0, w, tile[i]);
        }
        for (index_t i = rows; i < kMr; ++i) {
          for (index_t k = 0; k < w; ++k) tile[i][k] = T{0};
        }
        for (index_t k = 0; k < w; ++k) {
          T* dst = panel + (k0 + k) * kMr;
          for (index_t i = 0; i < kMr; ++i) dst[i] = tile[i][k];
        }
      }
    }
  }
};

/// Packs the kc x nc block of op(B) at logical (row0, col0) into micropanels
/// of NR columns: panel q holds columns [q*NR, q*NR + NR) with layout
/// packed[q][k][j] (j fastest), zero-padded to NR columns.
template <class K>
struct PackB {
  static constexpr index_t kNr = K::kNr;

  template <class T>
  [[gnu::always_inline]] static void run(std::span<const Scaled<T>> terms, bool trans,
                                         index_t row0, index_t col0, index_t kc,
                                         index_t nc, T* packed) {
    if (!trans) {
      with_lead<PackB>(terms.size(), terms, row0, col0, kc, nc, packed);
      return;
    }
    // Stored row col0 + j holds logical column j: combine an NR x kTile tile
    // with contiguous loads, then scatter it into the micropanel.
    constexpr index_t kTile = 32;
    alignas(64) T tile[kNr][kTile];
    for (index_t q0 = 0; q0 < nc; q0 += kNr) {
      const index_t cols = std::min(kNr, nc - q0);
      T* panel = packed + q0 * kc;
      for (index_t k0 = 0; k0 < kc; k0 += kTile) {
        const index_t w = std::min(kTile, kc - k0);
        for (index_t j = 0; j < cols; ++j) {
          gather_row<1>(terms, col0 + q0 + j, row0 + k0, w, tile[j]);
        }
        for (index_t j = cols; j < kNr; ++j) {
          for (index_t k = 0; k < w; ++k) tile[j][k] = T{0};
        }
        for (index_t k = 0; k < w; ++k) {
          T* dst = panel + (k0 + k) * kNr;
          for (index_t j = 0; j < kNr; ++j) dst[j] = tile[j][k];
        }
      }
    }
  }

  /// Stored row row0 + k is logical row k: gather each NR-run in place.
  /// A plain operand (every classical gemm) is copied panel by panel, which
  /// writes each panel contiguously. A combination walks each stored row
  /// across all the panels instead: its terms' blocks come from the far
  /// caches, and a whole nc-run per row streams where a panel-by-panel walk
  /// starts a new row for every NR-run.
  template <int Lead, class T>
  [[gnu::always_inline]] static void untransposed(std::span<const Scaled<T>> terms,
                                                  index_t row0, index_t col0, index_t kc,
                                                  index_t nc, T* packed) {
    if (Lead == 1 && terms[0].coeff == T{1}) {
      for (index_t q0 = 0; q0 < nc; q0 += kNr) {
        for (index_t k = 0; k < kc; ++k) {
          slice<Lead>(terms, row0 + k, col0 + q0, std::min(kNr, nc - q0),
                      packed + q0 * kc + k * kNr);
        }
      }
      return;
    }
    for (index_t k = 0; k < kc; ++k) {
      for (index_t q0 = 0; q0 < nc; q0 += kNr) {
        slice<Lead>(terms, row0 + k, col0 + q0, std::min(kNr, nc - q0),
                    packed + q0 * kc + k * kNr);
      }
    }
  }

  /// One k-slice of a panel: the terms' stored row r, columns [c, c + cols),
  /// zero-padded to NR.
  template <int Lead, class T>
  [[gnu::always_inline]] static void slice(std::span<const Scaled<T>> terms, index_t r,
                                           index_t c, index_t cols, T* dst) {
    gather_row<Lead>(terms, r, c, cols, dst);
    for (index_t j = cols; j < kNr; ++j) dst[j] = T{0};
  }
};

template <class K, class T>
void pack_a(std::span<const Scaled<T>> terms, bool trans, index_t row0, index_t col0,
            index_t mc, index_t kc, T* packed) {
  run_for_host<PackA<K>>(terms, trans, row0, col0, mc, kc, packed);
}

template <class K, class T>
void pack_b(std::span<const Scaled<T>> terms, bool trans, index_t row0, index_t col0,
            index_t kc, index_t nc, T* packed) {
  run_for_host<PackB<K>>(terms, trans, row0, col0, kc, nc, packed);
}

}  // namespace apa::blas::detail
