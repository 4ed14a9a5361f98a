#include "blas/combine.h"

#include <omp.h>

#include "blas/isa.h"

namespace apa::blas {
namespace {

// The row-range workers run through run_for_host (blas/isa.h): at vector
// width even in a portable build, and with the FMA contraction a native build
// applies, so a portable build's APA products round like a native build's.
// Their inner loops call no out-of-line function: unoptimized, a call from the
// AVX copy into baseline SSE code pays a state transition per element.

/// Row-range worker. The inner loops are written so the compiler can vectorize
/// each fixed-arity case; the hot arities for practical rules are 1-4 addends.
struct CombineRows {
  template <class T>
  [[gnu::always_inline]] static void run(std::span<const Scaled<T>> terms,
                                         MatrixView<T> y, index_t row0, index_t row1) {
    const index_t cols = y.cols;
    switch (terms.size()) {
      case 0:
        for (index_t i = row0; i < row1; ++i) {
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) out[j] = T{0};
        }
        return;
      case 1: {
        const T c0 = terms[0].coeff;
        for (index_t i = row0; i < row1; ++i) {
          const T* x0 = &terms[0].view(i, 0);
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j];
        }
        return;
      }
      case 2: {
        const T c0 = terms[0].coeff, c1 = terms[1].coeff;
        for (index_t i = row0; i < row1; ++i) {
          const T* x0 = &terms[0].view(i, 0);
          const T* x1 = &terms[1].view(i, 0);
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j] + c1 * x1[j];
        }
        return;
      }
      case 3: {
        const T c0 = terms[0].coeff, c1 = terms[1].coeff, c2 = terms[2].coeff;
        for (index_t i = row0; i < row1; ++i) {
          const T* x0 = &terms[0].view(i, 0);
          const T* x1 = &terms[1].view(i, 0);
          const T* x2 = &terms[2].view(i, 0);
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) {
            out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j];
          }
        }
        return;
      }
      case 4: {
        const T c0 = terms[0].coeff, c1 = terms[1].coeff, c2 = terms[2].coeff,
                c3 = terms[3].coeff;
        for (index_t i = row0; i < row1; ++i) {
          const T* x0 = &terms[0].view(i, 0);
          const T* x1 = &terms[1].view(i, 0);
          const T* x2 = &terms[2].view(i, 0);
          const T* x3 = &terms[3].view(i, 0);
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) {
            out[j] = c0 * x0[j] + c1 * x1[j] + c2 * x2[j] + c3 * x3[j];
          }
        }
        return;
      }
      default: {
        // Generic arity: first two terms write, the rest accumulate; the output
        // row stays in cache so this remains a single streaming pass per input.
        const T c0 = terms[0].coeff, c1 = terms[1].coeff;
        for (index_t i = row0; i < row1; ++i) {
          const T* x0 = &terms[0].view(i, 0);
          const T* x1 = &terms[1].view(i, 0);
          T* out = &y(i, 0);
          for (index_t j = 0; j < cols; ++j) out[j] = c0 * x0[j] + c1 * x1[j];
          for (std::size_t t = 2; t < terms.size(); ++t) {
            const T ct = terms[t].coeff;
            const T* xt = &terms[t].view(i, 0);
            for (index_t j = 0; j < cols; ++j) out[j] += ct * xt[j];
          }
        }
        return;
      }
    }
  }
};

}  // namespace

template <class T>
void linear_combination(std::span<const Scaled<T>> terms, MatrixView<T> y,
                        int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.rows && t.view.cols == y.cols);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    run_for_host<CombineRows>(terms, y, index_t{0}, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    run_for_host<CombineRows>(terms, y, row0, row1);
  }
}

namespace {

struct StreamingRows {
  template <class T>
  [[gnu::always_inline]] static void run(std::span<const Scaled<T>> terms,
                                         MatrixView<T> y, index_t row0, index_t row1) {
    const index_t cols = y.cols;
    for (index_t i = row0; i < row1; ++i) {
      T* out = &y(i, 0);
      for (index_t j = 0; j < cols; ++j) out[j] = T{0};
    }
    for (const auto& term : terms) {
      const T c = term.coeff;
      for (index_t i = row0; i < row1; ++i) {
        const T* x = &term.view(i, 0);
        T* out = &y(i, 0);
        for (index_t j = 0; j < cols; ++j) out[j] += c * x[j];
      }
    }
  }
};

}  // namespace

template <class T>
void linear_combination_streaming(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                  int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.rows && t.view.cols == y.cols);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    run_for_host<StreamingRows>(terms, y, index_t{0}, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    run_for_host<StreamingRows>(terms, y, row0, row1);
  }
}

namespace {

/// Tile-blocked transposed gather: inside a kTile x kTile tile both Y rows and
/// the transposed input's rows fit in cache, so the strided reads stay
/// cache-line coherent. First term writes, the rest accumulate.
struct TransposedRows {
  template <class T>
  [[gnu::always_inline]] static void run(std::span<const Scaled<T>> terms,
                                         MatrixView<T> y, index_t row0, index_t row1) {
    constexpr index_t kTile = 32;
    const index_t cols = y.cols;
    for (index_t i0 = row0; i0 < row1; i0 += kTile) {
      const index_t i1 = std::min(i0 + kTile, row1);
      for (index_t j0 = 0; j0 < cols; j0 += kTile) {
        const index_t j1 = std::min(j0 + kTile, cols);
        if (terms.empty()) {
          for (index_t i = i0; i < i1; ++i) {
            T* out = &y(i, 0);
            for (index_t j = j0; j < j1; ++j) out[j] = T{0};
          }
          continue;
        }
        const T c0 = terms[0].coeff;
        for (index_t i = i0; i < i1; ++i) {
          T* out = &y(i, 0);
          const auto& x0 = terms[0].view;
          for (index_t j = j0; j < j1; ++j) out[j] = c0 * x0.data[j * x0.ld + i];
        }
        for (std::size_t t = 1; t < terms.size(); ++t) {
          const T ct = terms[t].coeff;
          const auto& xt = terms[t].view;
          for (index_t i = i0; i < i1; ++i) {
            T* out = &y(i, 0);
            for (index_t j = j0; j < j1; ++j) out[j] += ct * xt.data[j * xt.ld + i];
          }
        }
      }
    }
  }
};

}  // namespace

template <class T>
void linear_combination_transposed(std::span<const Scaled<T>> terms, MatrixView<T> y,
                                   int num_threads) {
  for (const auto& t : terms) {
    APA_CHECK(t.view.rows == y.cols && t.view.cols == y.rows);
  }
  if (num_threads <= 1 || y.rows < 2 * num_threads) {
    run_for_host<TransposedRows>(terms, y, index_t{0}, y.rows);
    return;
  }
#pragma omp parallel num_threads(num_threads)
  {
    const int tid = omp_get_thread_num();
    const int nth = omp_get_num_threads();
    const index_t chunk = (y.rows + nth - 1) / nth;
    const index_t row0 = std::min<index_t>(tid * chunk, y.rows);
    const index_t row1 = std::min<index_t>(row0 + chunk, y.rows);
    run_for_host<TransposedRows>(terms, y, row0, row1);
  }
}

template void linear_combination<float>(std::span<const Scaled<float>>, MatrixView<float>,
                                        int);
template void linear_combination<double>(std::span<const Scaled<double>>,
                                         MatrixView<double>, int);
template void linear_combination_streaming<float>(std::span<const Scaled<float>>,
                                                  MatrixView<float>, int);
template void linear_combination_streaming<double>(std::span<const Scaled<double>>,
                                                   MatrixView<double>, int);
template void linear_combination_transposed<float>(std::span<const Scaled<float>>,
                                                   MatrixView<float>, int);
template void linear_combination_transposed<double>(std::span<const Scaled<double>>,
                                                    MatrixView<double>, int);

}  // namespace apa::blas
