#pragma once
// Register-blocked GEMM microkernels operating on packed panels.
//
// A microkernel computes one MR x NR tile:
//   C_tile = alpha * sum_k a_panel(:,k) * b_panel(k,:) + beta * C_tile
// where a_panel is packed column-major-in-k (MR contiguous values per k) and
// b_panel row-major-in-k (NR contiguous values per k), the standard
// BLIS/GotoBLAS layout.
//
// Each kernel is a type carrying its ISA and register tile as static members
// (kIsa, kMr, kNr) and a static run(). The SIMD kernels are compiled with a
// function-level target attribute instead of per-file -m flags, so all of them
// live in one binary and blas/plan.cpp instantiates the packing and engines
// once per kernel type; which one runs is a runtime choice (blas/isa.h).

#include <cstddef>

#include "blas/isa.h"
#include "support/aligned.h"
#include "support/matrix.h"

#ifdef APAMM_BLAS_X86
#include <immintrin.h>
#endif

namespace apa::blas::detail {

/// Portable kernel, plain loops the compiler vectorizes for the build's
/// baseline ISA. Uses the AVX2 tile shapes (6x16 single / 4x8 double).
template <class T>
struct ScalarKernel {
  using value_type = T;
  static constexpr Isa kIsa = Isa::kScalar;
  static constexpr index_t kMr = sizeof(T) == 4 ? 6 : 4;
  static constexpr index_t kNr = sizeof(T) == 4 ? 16 : 8;

  static void run(index_t kc, T alpha, const T* a_panel, const T* b_panel, T beta,
                  T* c, index_t ldc) {
    T acc[kMr][kNr] = {};
    for (index_t p = 0; p < kc; ++p) {
      const T* a = a_panel + p * kMr;
      const T* b = b_panel + p * kNr;
      for (index_t i = 0; i < kMr; ++i) {
        const T ai = a[i];
        for (index_t j = 0; j < kNr; ++j) acc[i][j] += ai * b[j];
      }
    }
    for (index_t i = 0; i < kMr; ++i) {
      for (index_t j = 0; j < kNr; ++j) {
        T* out = c + i * ldc + j;
        *out = alpha * acc[i][j] + (beta == T{0} ? T{0} : beta * *out);
      }
    }
  }
};

#ifdef APAMM_BLAS_X86

/// AVX2+FMA kernels: 6x16 single (12 accumulator ymm registers) and 4x8
/// double (8). The paper-balance kernel.
template <class T>
struct Avx2Kernel;

template <>
struct Avx2Kernel<float> {
  using value_type = float;
  static constexpr Isa kIsa = Isa::kAvx2;
  static constexpr index_t kMr = 6;
  static constexpr index_t kNr = 16;

  APAMM_TARGET_AVX2 static void run(index_t kc, float alpha, const float* a_panel,
                                    const float* b_panel, float beta, float* c,
                                    index_t ldc) {
    __m256 acc[6][2];
    for (auto& row : acc) {
      row[0] = _mm256_setzero_ps();
      row[1] = _mm256_setzero_ps();
    }
    for (index_t p = 0; p < kc; ++p) {
      const __m256 b0 = _mm256_load_ps(b_panel + p * 16);
      const __m256 b1 = _mm256_load_ps(b_panel + p * 16 + 8);
      const float* a = a_panel + p * 6;
      for (int i = 0; i < 6; ++i) {
        const __m256 ai = _mm256_broadcast_ss(a + i);
        acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
      }
    }
    const __m256 valpha = _mm256_set1_ps(alpha);
    if (beta == 0.0f) {
      for (int i = 0; i < 6; ++i) {
        _mm256_storeu_ps(c + i * ldc, _mm256_mul_ps(valpha, acc[i][0]));
        _mm256_storeu_ps(c + i * ldc + 8, _mm256_mul_ps(valpha, acc[i][1]));
      }
    } else {
      const __m256 vbeta = _mm256_set1_ps(beta);
      for (int i = 0; i < 6; ++i) {
        __m256 c0 = _mm256_loadu_ps(c + i * ldc);
        __m256 c1 = _mm256_loadu_ps(c + i * ldc + 8);
        c0 = _mm256_fmadd_ps(valpha, acc[i][0], _mm256_mul_ps(vbeta, c0));
        c1 = _mm256_fmadd_ps(valpha, acc[i][1], _mm256_mul_ps(vbeta, c1));
        _mm256_storeu_ps(c + i * ldc, c0);
        _mm256_storeu_ps(c + i * ldc + 8, c1);
      }
    }
  }
};

template <>
struct Avx2Kernel<double> {
  using value_type = double;
  static constexpr Isa kIsa = Isa::kAvx2;
  static constexpr index_t kMr = 4;
  static constexpr index_t kNr = 8;

  APAMM_TARGET_AVX2 static void run(index_t kc, double alpha, const double* a_panel,
                                    const double* b_panel, double beta, double* c,
                                    index_t ldc) {
    __m256d acc[4][2];
    for (auto& row : acc) {
      row[0] = _mm256_setzero_pd();
      row[1] = _mm256_setzero_pd();
    }
    for (index_t p = 0; p < kc; ++p) {
      const __m256d b0 = _mm256_load_pd(b_panel + p * 8);
      const __m256d b1 = _mm256_load_pd(b_panel + p * 8 + 4);
      const double* a = a_panel + p * 4;
      for (int i = 0; i < 4; ++i) {
        const __m256d ai = _mm256_broadcast_sd(a + i);
        acc[i][0] = _mm256_fmadd_pd(ai, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_pd(ai, b1, acc[i][1]);
      }
    }
    const __m256d valpha = _mm256_set1_pd(alpha);
    if (beta == 0.0) {
      for (int i = 0; i < 4; ++i) {
        _mm256_storeu_pd(c + i * ldc, _mm256_mul_pd(valpha, acc[i][0]));
        _mm256_storeu_pd(c + i * ldc + 4, _mm256_mul_pd(valpha, acc[i][1]));
      }
    } else {
      const __m256d vbeta = _mm256_set1_pd(beta);
      for (int i = 0; i < 4; ++i) {
        __m256d c0 = _mm256_loadu_pd(c + i * ldc);
        __m256d c1 = _mm256_loadu_pd(c + i * ldc + 4);
        c0 = _mm256_fmadd_pd(valpha, acc[i][0], _mm256_mul_pd(vbeta, c0));
        c1 = _mm256_fmadd_pd(valpha, acc[i][1], _mm256_mul_pd(vbeta, c1));
        _mm256_storeu_pd(c + i * ldc, c0);
        _mm256_storeu_pd(c + i * ldc + 4, c1);
      }
    }
  }
};

/// AVX-512 kernels following the BLIS skylake-x shapes: 14x32 single (28
/// accumulator zmm registers) and 8x16 double (16).
template <class T>
struct Avx512Kernel;

template <>
struct Avx512Kernel<float> {
  using value_type = float;
  static constexpr Isa kIsa = Isa::kAvx512;
  static constexpr index_t kMr = 14;
  static constexpr index_t kNr = 32;

  APAMM_TARGET_AVX512 static void run(index_t kc, float alpha, const float* a_panel,
                                      const float* b_panel, float beta, float* c,
                                      index_t ldc) {
    __m512 acc[14][2];
    for (auto& row : acc) {
      row[0] = _mm512_setzero_ps();
      row[1] = _mm512_setzero_ps();
    }
    for (index_t p = 0; p < kc; ++p) {
      const __m512 b0 = _mm512_load_ps(b_panel + p * 32);
      const __m512 b1 = _mm512_load_ps(b_panel + p * 32 + 16);
      const float* a = a_panel + p * 14;
#pragma GCC unroll 14
      for (int i = 0; i < 14; ++i) {
        const __m512 ai = _mm512_set1_ps(a[i]);
        acc[i][0] = _mm512_fmadd_ps(ai, b0, acc[i][0]);
        acc[i][1] = _mm512_fmadd_ps(ai, b1, acc[i][1]);
      }
    }
    const __m512 valpha = _mm512_set1_ps(alpha);
    if (beta == 0.0f) {
      for (int i = 0; i < 14; ++i) {
        _mm512_storeu_ps(c + i * ldc, _mm512_mul_ps(valpha, acc[i][0]));
        _mm512_storeu_ps(c + i * ldc + 16, _mm512_mul_ps(valpha, acc[i][1]));
      }
    } else {
      const __m512 vbeta = _mm512_set1_ps(beta);
      for (int i = 0; i < 14; ++i) {
        __m512 c0 = _mm512_loadu_ps(c + i * ldc);
        __m512 c1 = _mm512_loadu_ps(c + i * ldc + 16);
        c0 = _mm512_fmadd_ps(valpha, acc[i][0], _mm512_mul_ps(vbeta, c0));
        c1 = _mm512_fmadd_ps(valpha, acc[i][1], _mm512_mul_ps(vbeta, c1));
        _mm512_storeu_ps(c + i * ldc, c0);
        _mm512_storeu_ps(c + i * ldc + 16, c1);
      }
    }
  }
};

template <>
struct Avx512Kernel<double> {
  using value_type = double;
  static constexpr Isa kIsa = Isa::kAvx512;
  static constexpr index_t kMr = 8;
  static constexpr index_t kNr = 16;

  APAMM_TARGET_AVX512 static void run(index_t kc, double alpha, const double* a_panel,
                                      const double* b_panel, double beta, double* c,
                                      index_t ldc) {
    __m512d acc[8][2];
    for (auto& row : acc) {
      row[0] = _mm512_setzero_pd();
      row[1] = _mm512_setzero_pd();
    }
    for (index_t p = 0; p < kc; ++p) {
      const __m512d b0 = _mm512_load_pd(b_panel + p * 16);
      const __m512d b1 = _mm512_load_pd(b_panel + p * 16 + 8);
      const double* a = a_panel + p * 8;
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        const __m512d ai = _mm512_set1_pd(a[i]);
        acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
        acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
      }
    }
    const __m512d valpha = _mm512_set1_pd(alpha);
    if (beta == 0.0) {
      for (int i = 0; i < 8; ++i) {
        _mm512_storeu_pd(c + i * ldc, _mm512_mul_pd(valpha, acc[i][0]));
        _mm512_storeu_pd(c + i * ldc + 8, _mm512_mul_pd(valpha, acc[i][1]));
      }
    } else {
      const __m512d vbeta = _mm512_set1_pd(beta);
      for (int i = 0; i < 8; ++i) {
        __m512d c0 = _mm512_loadu_pd(c + i * ldc);
        __m512d c1 = _mm512_loadu_pd(c + i * ldc + 8);
        c0 = _mm512_fmadd_pd(valpha, acc[i][0], _mm512_mul_pd(vbeta, c0));
        c1 = _mm512_fmadd_pd(valpha, acc[i][1], _mm512_mul_pd(vbeta, c1));
        _mm512_storeu_pd(c + i * ldc, c0);
        _mm512_storeu_pd(c + i * ldc + 8, c1);
      }
    }
  }
};

#endif  // APAMM_BLAS_X86

/// Calls `f(kernel)` with a default-constructed kernel tag of element type T
/// for `isa`. Without x86 support every ISA maps to the scalar kernel (only
/// kScalar is ever supported there).
template <class T, class F>
decltype(auto) with_kernel(Isa isa, F&& f) {
  switch (isa) {
#ifdef APAMM_BLAS_X86
    case Isa::kAvx512:
      return f(Avx512Kernel<T>{});
    case Isa::kAvx2:
      return f(Avx2Kernel<T>{});
#endif
    default:
      return f(ScalarKernel<T>{});
  }
}

/// Partial tile (m < MR or n < NR): compute into a local full tile, then copy
/// the valid region with the alpha/beta update.
template <class K, class T>
inline void microkernel_edge(index_t kc, index_t m, index_t n, T alpha, const T* a_panel,
                             const T* b_panel, T beta, T* c, index_t ldc) {
  constexpr index_t nr = K::kNr;
  alignas(kSimdAlignment) T tile[K::kMr * nr];
  K::run(kc, T{1}, a_panel, b_panel, T{0}, tile, nr);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T* out = c + i * ldc + j;
      *out = alpha * tile[i * nr + j] + (beta == T{0} ? T{0} : beta * *out);
    }
  }
}

}  // namespace apa::blas::detail
