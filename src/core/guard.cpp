#include "core/guard.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "blas/isa.h"
#include "support/check.h"

namespace apa::core {
namespace {

// The verify kernels apply op(M) (or |op(M)|) of a stored row-major M to a
// vector, always streaming M's stored rows contiguously: row dot products when
// M is untransposed, axpys into the output vector when it is transposed
// (walking op(M)'s rows would stride by ld through memory instead).
//
// They run through blas::run_for_host, so a portable build runs them at the
// host's vector width like the gemm kernels they check; everything here is
// always_inline so that each run_for_host copy is compiled for its target.
// Each dot product keeps kLanes independent partial sums, which the compiler
// maps onto vector registers: a single running sum would be one chain of
// dependent adds, bound by add latency instead of load bandwidth.
// Reassociating changes only the rounding of the double accumulations,
// O(n u) per row, far inside the guard's accumulation-floor tolerance. The
// loops call no out-of-line function (hence __builtin_fabs): unoptimized, a
// call from an AVX copy into baseline SSE code pays a state transition per
// element.
constexpr index_t kLanes = 16;

[[gnu::always_inline]] inline double lane_sum(const double (&acc)[kLanes]) {
  double sum = 0;
  for (const double v : acc) sum += v;
  return sum;
}

// sum_j x_j w_j.
[[gnu::always_inline]] inline double row_dot(const float* x, const double* w,
                                             index_t n) {
  double acc[kLanes] = {};
  index_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
#pragma omp simd
    for (index_t l = 0; l < kLanes; ++l) {
      acc[l] += static_cast<double>(x[j + l]) * w[j + l];
    }
  }
  for (; j < n; ++j) acc[0] += static_cast<double>(x[j]) * w[j];
  return lane_sum(acc);
}

// sum_j x_j w_j, and abs_out = sum_j |x_j| w_abs_j.
[[gnu::always_inline]] inline double row_dot_abs(const float* x, const double* w,
                                                 const double* w_abs, index_t n,
                                                 double* abs_out) {
  double acc[kLanes] = {};
  double abs_acc[kLanes] = {};
  index_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
#pragma omp simd
    for (index_t l = 0; l < kLanes; ++l) {
      const double v = static_cast<double>(x[j + l]);
      acc[l] += v * w[j + l];
      abs_acc[l] += __builtin_fabs(v) * w_abs[j + l];
    }
  }
  for (; j < n; ++j) {
    const double v = static_cast<double>(x[j]);
    acc[0] += v * w[j];
    abs_acc[0] += __builtin_fabs(v) * w_abs[j];
  }
  *abs_out = lane_sum(abs_acc);
  return lane_sum(acc);
}

// y += a x.
[[gnu::always_inline]] inline void row_axpy(const float* x, double a, index_t n,
                                            double* y) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) y[i] += static_cast<double>(x[i]) * a;
}

// y += a x and y_abs += a_abs |x|.
[[gnu::always_inline]] inline void row_axpy_abs(const float* x, double a, double a_abs,
                                                index_t n, double* y, double* y_abs) {
#pragma omp simd
  for (index_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    y[i] += v * a;
    y_abs[i] += __builtin_fabs(v) * a_abs;
  }
}

// y = op(M) x and, when x_abs is non-null, y_abs = |op(M)| x_abs, where op(M)
// is rows x cols (M stored cols x rows when `trans`).
struct ApplyOp {
  [[gnu::always_inline]] static void run(MatrixView<const float> m, bool trans,
                                         index_t rows, index_t cols, const double* x,
                                         const double* x_abs, double* y,
                                         double* y_abs) {
    if (!trans) {
      for (index_t i = 0; i < rows; ++i) {
        const float* row = m.data + i * m.ld;
        y[i] = x_abs != nullptr ? row_dot_abs(row, x, x_abs, cols, y_abs + i)
                                : row_dot(row, x, cols);
      }
      return;
    }
    std::fill(y, y + rows, 0.0);
    if (x_abs != nullptr) std::fill(y_abs, y_abs + rows, 0.0);
    for (index_t t = 0; t < cols; ++t) {
      const float* row = m.data + t * m.ld;
      if (x_abs != nullptr) {
        row_axpy_abs(row, x[t], x_abs[t], rows, y, y_abs);
      } else {
        row_axpy(row, x[t], rows, y);
      }
    }
  }
};

void apply_op(MatrixView<const float> m, bool trans, index_t rows, index_t cols,
              const double* x, const double* x_abs, double* y, double* y_abs) {
  blas::run_for_host<ApplyOp>(m, trans, rows, cols, x, x_abs, y, y_abs);
}

}  // namespace

ProductGuard::ProductGuard(double relative_error_bound, GuardOptions options)
    : relative_error_bound_(relative_error_bound), options_(options) {
  APA_CHECK_MSG(relative_error_bound_ >= 0.0, "error bound must be non-negative");
  APA_CHECK_MSG(options_.num_probes >= 1, "need at least one probe");
}

double ProductGuard::model_error_bound(const AlgorithmParams& params,
                                       int precision_bits, int steps) {
  if (params.exact || params.sigma == 0) {
    // Exact rules only accumulate roundoff; k * 2^-d with modest k.
    return std::exp2(-precision_bits);
  }
  return params.predicted_error(precision_bits, std::max(1, steps));
}

double ProductGuard::error_bound_for_lambda(const AlgorithmParams& params,
                                            double lambda, int precision_bits,
                                            int steps) {
  APA_CHECK_MSG(lambda > 0.0, "lambda must be positive");
  if (params.exact || params.sigma == 0) return std::exp2(-precision_bits);
  const double approx = std::pow(lambda, params.sigma);
  const double roundoff =
      std::exp2(-precision_bits) *
      std::pow(lambda, -static_cast<double>(std::max(1, steps)) * params.phi);
  return approx + roundoff;
}

GuardReport ProductGuard::verify(MatrixView<const float> a,
                                 MatrixView<const float> b,
                                 MatrixView<const float> c, Rng& rng,
                                 bool transpose_a, bool transpose_b) const {
  const index_t m = transpose_a ? a.cols : a.rows;
  const index_t k = transpose_a ? a.rows : a.cols;
  const index_t kb = transpose_b ? b.cols : b.rows;
  const index_t n = transpose_b ? b.rows : b.cols;
  APA_CHECK_CODE(k == kb && c.rows == m && c.cols == n, ErrorCode::kShapeMismatch,
                 "guard operands disagree: op(A) " << m << "x" << k << ", op(B) "
                                                   << kb << "x" << n << ", C "
                                                   << c.rows << "x" << c.cols);

  GuardReport report;
  if (m == 0 || n == 0) return report;

  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> br(static_cast<std::size_t>(k));
  std::vector<double> abs_br(static_cast<std::size_t>(k));
  std::vector<double> scale(static_cast<std::size_t>(m));
  std::vector<double> abr(static_cast<std::size_t>(m));
  std::vector<double> cr(static_cast<std::size_t>(m));
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  // Every product — exact rules included — bottoms out in length-k float
  // accumulations, so O(k)*u roundoff rides on top of the sigma/phi bound.
  const double accumulation_floor = static_cast<double>(k) * std::exp2(-24);
  const double rel =
      (relative_error_bound_ + accumulation_floor) * options_.tolerance_multiplier;

  // The first probe's passes over op(B) and op(A) also build the row scales
  // S_i = sum_j (|op(A)| |op(B)|)_ij, reduced to S = max_i S_i — the product
  // magnitude against which the sigma/phi model's *relative* error is
  // measured. The tolerance is matrix-level (S, not S_i) on purpose: block
  // APA rules leak O(lambda^sigma) of *neighboring* block rows into each
  // output row, so an all-zero input row (dead ReLU unit, blank pixel) still
  // carries residual proportional to the rest of the matrix — a per-row
  // scale would flag every honest sparse row. Probe-independent, so later
  // probes run dot-only passes against the cached tolerance.
  std::vector<double> residual(static_cast<std::size_t>(m));
  double tolerance = 0;
  bool scale_ready = false;
  for (int probe = 0; probe < options_.num_probes; ++probe) {
    const Rng before_probe = rng;
    // Rademacher probe: +-1 keeps every column's contribution at full
    // magnitude, so no error entry is attenuated out of the residual.
    for (auto& x : r) x = (rng.next_u64() & 1) ? 1.0 : -1.0;

    // C r doubles as the non-finite scan of C: with r = +-1 and float entries
    // summed in double (no overflow), (C r)_i is NaN or +-Inf exactly when
    // row i of C holds a NaN or an Inf. Checked before any other pass, and
    // the probe is handed back, as if the scan had run first on its own.
    apply_op(c, false, m, n, r.data(), nullptr, cr.data(), nullptr);
    if (probe == 0 && !std::all_of(cr.begin(), cr.end(),
                                   [](double v) { return std::isfinite(v); })) {
      rng = before_probe;
      report.ok = false;
      report.nonfinite_output = true;
      return report;
    }

    // br = op(B) r and, on the first probe, abs_br = |op(B)| 1; then
    // abr = op(A) br and scale = |op(A)| abs_br.
    if (!scale_ready) {
      apply_op(b, transpose_b, k, n, r.data(), ones.data(), br.data(), abs_br.data());
      apply_op(a, transpose_a, m, k, br.data(), abs_br.data(), abr.data(),
               scale.data());
    } else {
      apply_op(b, transpose_b, k, n, r.data(), nullptr, br.data(), nullptr);
      apply_op(a, transpose_a, m, k, br.data(), nullptr, abr.data(), nullptr);
    }
    for (std::size_t i = 0; i < residual.size(); ++i) {
      residual[i] = std::abs(cr[i] - abr[i]);
    }
    if (!scale_ready) {
      double scale_max = 0;
      for (const double s : scale) scale_max = std::max(scale_max, s);
      tolerance = rel * scale_max + options_.min_absolute_tolerance;
      scale_ready = true;
    }
    for (const double res : residual) {
      const double ratio = res / tolerance;
      if (ratio > report.worst_ratio) report.worst_ratio = ratio;
    }
  }
  report.ok = report.worst_ratio <= 1.0;
  return report;
}

}  // namespace apa::core
