#include "core/cost_model.h"

#include <algorithm>
#include <vector>

#include "blas/combine.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/timer.h"

namespace apa::core {

double addition_traffic_bytes(const Rule& rule, index_t m_full, index_t k_full,
                              index_t n_full, std::size_t element_size) {
  APA_CHECK(m_full % rule.m == 0 && k_full % rule.k == 0 && n_full % rule.n == 0);
  const double a_block =
      static_cast<double>(m_full / rule.m) * static_cast<double>(k_full / rule.k);
  const double b_block =
      static_cast<double>(k_full / rule.k) * static_cast<double>(n_full / rule.n);
  const double c_block =
      static_cast<double>(m_full / rule.m) * static_cast<double>(n_full / rule.n);

  double elements = 0;
  for (index_t l = 0; l < rule.rank; ++l) {
    index_t u_terms = 0, v_terms = 0;
    for (index_t e = 0; e < rule.m * rule.k; ++e) {
      u_terms += !rule.u[e * rule.rank + l].is_zero();
    }
    for (index_t e = 0; e < rule.k * rule.n; ++e) {
      v_terms += !rule.v[e * rule.rank + l].is_zero();
    }
    elements += static_cast<double>(std::max<index_t>(u_terms - 1, 0)) * a_block;
    elements += static_cast<double>(std::max<index_t>(v_terms - 1, 0)) * b_block;
  }
  for (index_t e = 0; e < rule.m * rule.n; ++e) {
    index_t w_terms = 0;
    for (index_t l = 0; l < rule.rank; ++l) {
      w_terms += !rule.w[e * rule.rank + l].is_zero();
    }
    elements += static_cast<double>(w_terms + 1) * c_block;
  }
  return elements * static_cast<double>(element_size);
}

CostBreakdown predict_one_step(const Rule& rule, index_t m_full, index_t k_full,
                               index_t n_full, const CostInputs& inputs) {
  APA_CHECK(inputs.sub_gemm_seconds > 0 && inputs.add_bandwidth > 0);
  CostBreakdown out;
  out.multiply_seconds = static_cast<double>(rule.rank) * inputs.sub_gemm_seconds;
  out.addition_seconds =
      addition_traffic_bytes(rule, m_full, k_full, n_full) / inputs.add_bandwidth;
  return out;
}

double measure_add_bandwidth(index_t dim) {
  Rng rng(17);
  Matrix<float> x0(dim, dim), x1(dim, dim), y(dim, dim);
  fill_random_uniform<float>(x0.view(), rng);
  fill_random_uniform<float>(x1.view(), rng);
  const std::vector<blas::Scaled<float>> terms = {{1.0f, x0.view()}, {-1.0f, x1.view()}};
  blas::linear_combination<float>(terms, y.view());  // warmup
  const int reps = 5;
  WallTimer timer;
  for (int r = 0; r < reps; ++r) blas::linear_combination<float>(terms, y.view());
  const double seconds = timer.seconds() / reps;
  const double bytes =
      3.0 * static_cast<double>(dim) * static_cast<double>(dim) * sizeof(float);
  return bytes / seconds;
}

}  // namespace apa::core
