#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/registry.h"

namespace apa::core {
namespace {

TEST(CostModel, ClassicalRuleHasOnlyOutputWrites) {
  // classical<1,1,1>: one product, single unit terms on both sides (free),
  // one output entry reading one product: (1 + 1) * block elements.
  const Rule rule = classical(1, 1, 1);
  const double bytes = addition_traffic_bytes(rule, 64, 64, 64);
  EXPECT_DOUBLE_EQ(bytes, 2.0 * 64 * 64 * sizeof(float));
}

TEST(CostModel, StrassenTrafficMatchesHandCount) {
  // Strassen at block size b = (dim/2)^2 elements:
  //  U terms per product: 2,2,1,1,2,2,2 ; V terms: 2,1,2,2,1,2,2.
  //  U traffic: the pack of each 2-term combination (5 of them) reads one
  //  extra source block: (2-1)*b each = 5b.
  //  V traffic: likewise 5b.
  //  W: entries have 4,2,2,4 terms -> (5+3+3+5) b = 16b.
  const Rule rule = strassen();
  const double b = 32.0 * 32.0;  // dim 64
  EXPECT_DOUBLE_EQ(addition_traffic_bytes(rule, 64, 64, 64),
                   (5 + 5 + 16) * b * sizeof(float));
}

TEST(CostModel, SingleTermInputsAreFreeWhateverTheirCoefficient) {
  // bini322 at lambda: every product's single-term A or B operand carries a
  // non-unit coefficient on some products; the pack scales it in passing, so
  // only multi-term combinations (t - 1 extra reads each) and C cost traffic.
  const Rule rule = bini322();
  const double a_block = 20.0 * 30.0, b_block = 30.0 * 30.0, c_block = 20.0 * 30.0;
  double want = 0;
  for (index_t l = 0; l < rule.rank; ++l) {
    index_t u = 0, v = 0;
    for (index_t e = 0; e < rule.m * rule.k; ++e) u += !rule.u[e * rule.rank + l].is_zero();
    for (index_t e = 0; e < rule.k * rule.n; ++e) v += !rule.v[e * rule.rank + l].is_zero();
    want += static_cast<double>(u - 1) * a_block + static_cast<double>(v - 1) * b_block;
  }
  for (index_t e = 0; e < rule.m * rule.n; ++e) {
    index_t w = 0;
    for (index_t l = 0; l < rule.rank; ++l) w += !rule.w[e * rule.rank + l].is_zero();
    want += static_cast<double>(w + 1) * c_block;
  }
  EXPECT_DOUBLE_EQ(addition_traffic_bytes(rule, 60, 60, 60), want * sizeof(float));
}

TEST(CostModel, TrafficScalesWithBlockArea) {
  const Rule rule = bini322();
  const double small = addition_traffic_bytes(rule, 60, 60, 60);
  const double large = addition_traffic_bytes(rule, 120, 120, 120);
  EXPECT_NEAR(large / small, 4.0, 1e-9);
}

TEST(CostModel, DoublePrecisionDoublesTraffic) {
  const Rule rule = strassen();
  EXPECT_DOUBLE_EQ(addition_traffic_bytes(rule, 64, 64, 64, sizeof(double)),
                   2.0 * addition_traffic_bytes(rule, 64, 64, 64, sizeof(float)));
}

TEST(CostModel, PredictBreakdownComposes) {
  const Rule& rule = rule_by_name("fast444");
  CostInputs inputs;
  inputs.sub_gemm_seconds = 1e-3;
  inputs.add_bandwidth = 1e10;
  const auto breakdown = predict_one_step(rule, 1024, 1024, 1024, inputs);
  EXPECT_DOUBLE_EQ(breakdown.multiply_seconds, 49e-3);
  EXPECT_GT(breakdown.addition_seconds, 0);
  EXPECT_DOUBLE_EQ(breakdown.total(),
                   breakdown.multiply_seconds + breakdown.addition_seconds);
}

TEST(CostModel, HigherRankMeansMoreMultiplyTime) {
  CostInputs inputs;
  inputs.sub_gemm_seconds = 1e-3;
  inputs.add_bandwidth = 1e10;
  const auto strassen_cost =
      predict_one_step(rule_by_name("strassen"), 512, 512, 512, inputs);
  const auto classical_cost = predict_one_step(classical(2, 2, 2), 512, 512, 512, inputs);
  EXPECT_LT(strassen_cost.multiply_seconds, classical_cost.multiply_seconds);
  EXPECT_GT(strassen_cost.addition_seconds, classical_cost.addition_seconds);
}

TEST(CostModel, InvalidInputsRejected) {
  const Rule rule = strassen();
  EXPECT_THROW((void)addition_traffic_bytes(rule, 63, 64, 64), std::logic_error);
  EXPECT_THROW((void)predict_one_step(rule, 64, 64, 64, {}), std::logic_error);
}

TEST(CostModel, MeasuredBandwidthPlausible) {
  const double bw = measure_add_bandwidth(256);
  EXPECT_GT(bw, 1e8);   // > 0.1 GB/s — anything slower means broken timing
  EXPECT_LT(bw, 1e13);  // < 10 TB/s — faster means broken math
}

}  // namespace
}  // namespace apa::core
