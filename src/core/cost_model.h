#pragma once
// Analytic cost model for one recursive step (paper section 2.4): the ideal
// speedup m*k*n/r is eroded by (a) gemm running on smaller sub-problems and
// (b) the memory-bandwidth-bound matrix additions. This module predicts the
// step time from a measured sub-gemm time and a measured streaming bandwidth,
// making the erosion quantitative (see bench/ablation_cost_model).

#include "core/rule.h"

namespace apa::core {

/// Bytes moved by the linear combinations of one step applied to an
/// (M x K) * (K x N) product, beyond what a plain gemm of each product moves.
/// The step runs at the bottom of the recursion, where the gemm packs every
/// input combination straight from its source blocks: a t-term combination
/// costs its t - 1 extra source-block reads (the pack reads one block for a
/// plain operand anyway) and no temp, so single-term combinations are free
/// whatever their coefficient. Every output entry reads its product blocks
/// and writes one C block.
[[nodiscard]] double addition_traffic_bytes(const Rule& rule, index_t m_full,
                                            index_t k_full, index_t n_full,
                                            std::size_t element_size = sizeof(float));

struct CostInputs {
  /// Measured seconds of one classical gemm at the sub-problem size
  /// (M/m x K/k x N/n).
  double sub_gemm_seconds = 0;
  /// Measured streaming bandwidth of the fused additions (bytes/second).
  double add_bandwidth = 0;
};

struct CostBreakdown {
  double multiply_seconds = 0;
  double addition_seconds = 0;
  [[nodiscard]] double total() const { return multiply_seconds + addition_seconds; }
};

/// Predicted one-step execution time: rank sub-gemms plus addition traffic.
[[nodiscard]] CostBreakdown predict_one_step(const Rule& rule, index_t m_full,
                                             index_t k_full, index_t n_full,
                                             const CostInputs& inputs);

/// Calibration helper: measures the achieved bandwidth (bytes/second) of a
/// representative 2-term write-once combination.
[[nodiscard]] double measure_add_bandwidth(index_t dim = 1024);

}  // namespace apa::core
