#include "blas/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/isa.h"
#include "blas/microkernel.h"
#include "support/check.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::blas {
namespace {

/// Single-precision register tile (MR, NR) of the kernel for `isa`.
std::pair<index_t, index_t> float_tile(Isa isa) {
  return detail::with_kernel<float>(isa, [](auto kernel) {
    using K = decltype(kernel);
    return std::pair<index_t, index_t>{K::kMr, K::kNr};
  });
}

/// Builds op(A)/op(B) storage for the given transpose flags, runs gemm_planned
/// with the requested prepack combination, and compares against gemm_reference.
template <class T>
void run_planned_case(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                      bool prepack_a, bool prepack_b, int threads, double tol) {
  Rng rng(static_cast<std::uint64_t>(m * 733 + n * 37 + k * 5 + threads));
  const index_t a_rows = (ta == Trans::kYes) ? k : m;
  const index_t a_cols = (ta == Trans::kYes) ? m : k;
  const index_t b_rows = (tb == Trans::kYes) ? n : k;
  const index_t b_cols = (tb == Trans::kYes) ? k : n;
  Matrix<T> a(a_rows, a_cols), b(b_rows, b_cols), c(m, n), c_ref(m, n);
  fill_random_uniform<T>(a.view(), rng);
  fill_random_uniform<T>(b.view(), rng);
  c.set_zero();
  c_ref.set_zero();

  PackedPanel<T> pa, pb;
  if (prepack_a) pa = PackedPanel<T>::pack_a(ta == Trans::kYes, a.view().as_const());
  if (prepack_b) pb = PackedPanel<T>::pack_b(tb == Trans::kYes, b.view().as_const());
  gemm_planned<T>(ta, a.view().as_const(), prepack_a ? &pa : nullptr, tb,
                  b.view().as_const(), prepack_b ? &pb : nullptr, c.view(), T{1}, T{0},
                  {}, threads);
  gemm_reference<T>(ta, tb, m, n, k, T{1}, a.data(), a.ld(), b.data(), b.ld(), T{0},
                    c_ref.data(), c_ref.ld());
  EXPECT_LT(relative_frobenius_error(c.view().as_const(), c_ref.view().as_const()), tol)
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::kYes)
      << " tb=" << (tb == Trans::kYes) << " pa=" << prepack_a << " pb=" << prepack_b;
}

// Edge dimensions around every kernel's register tile (6x16 scalar and AVX2,
// 14x32 AVX-512) plus odd primes: a packed panel must reproduce exactly what
// on-the-fly packing produces at every micropanel boundary of whichever
// kernel the host runs.
const std::vector<index_t> kEdgeDims = [] {
  std::vector<index_t> dims = {1, 37, 131};
  for (const Isa isa : kAllIsas) {
    const auto [mr, nr] = float_tile(isa);
    for (const index_t tile : {mr, nr}) {
      dims.push_back(tile - 1);
      dims.push_back(tile + 1);
    }
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}();

using TransCase = std::tuple<int, int>;

class PlannedGemmTransposes : public ::testing::TestWithParam<TransCase> {};

TEST_P(PlannedGemmTransposes, PrepackedMatchesReferenceAtEdgeShapes) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  for (const index_t m : kEdgeDims) {
    for (const index_t n : kEdgeDims) {
      for (const index_t k : kEdgeDims) {
        run_planned_case<float>(ta, tb, m, n, k, true, true, 1, 2e-5);
      }
    }
  }
}

TEST_P(PlannedGemmTransposes, SingleSidePrepackMatchesReference) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  run_planned_case<float>(ta, tb, 67, 43, 29, true, false, 1, 2e-5);
  run_planned_case<float>(ta, tb, 67, 43, 29, false, true, 1, 2e-5);
  run_planned_case<double>(ta, tb, 31, 53, 17, true, false, 1, 1e-13);
  run_planned_case<double>(ta, tb, 31, 53, 17, false, true, 1, 1e-13);
}

TEST_P(PlannedGemmTransposes, PrepackedCrossesCacheBlockBoundaries) {
  const auto [ta_i, tb_i] = GetParam();
  const Trans ta = ta_i ? Trans::kYes : Trans::kNo;
  const Trans tb = tb_i ? Trans::kYes : Trans::kNo;
  // k > KC forces multiple packed k-blocks; m > MC multiple A blocks.
  run_planned_case<float>(ta, tb, 131, 47, 300, true, true, 1, 5e-5);
  run_planned_case<double>(ta, tb, 130, 33, 270, true, true, 1, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, PlannedGemmTransposes,
                         ::testing::Values(TransCase{0, 0}, TransCase{0, 1},
                                           TransCase{1, 0}, TransCase{1, 1}));

/// Unfused reference: plain product into a copy, then a separate full-matrix
/// epilogue pass. Fusion must be bit-identical (same per-element op order).
void expect_fusion_bit_exact(EpilogueKind kind, index_t m, index_t n, index_t k,
                             float alpha, float beta, int threads) {
  Rng rng(static_cast<std::uint64_t>(m * 19 + n * 7 + k + static_cast<int>(kind)));
  Matrix<float> a(m, k), b(k, n), c_fused(m, n), c_two_pass(m, n), bias(1, n);
  Matrix<float> gate(m, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  fill_random_uniform<float>(bias.view(), rng);
  // Mixed-sign inputs so ReLU and the gate actually cut.
  fill_random_uniform<float>(gate.view(), rng);
  for (auto& g : gate.span()) g -= 0.5f;
  fill_random_uniform<float>(c_fused.view(), rng);
  copy(c_fused.view().as_const(), c_two_pass.view());

  Epilogue<float> ep{kind, bias.data(), gate.view().as_const()};
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c_fused.view(), alpha,
                    beta, ep, threads);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c_two_pass.view(),
                    alpha, beta, {}, threads);
  apply_epilogue<float>(ep, c_two_pass.view());
  EXPECT_EQ(max_abs_diff(c_fused.view(), c_two_pass.view()), 0.0)
      << "kind=" << static_cast<int>(kind) << " m=" << m << " n=" << n << " k=" << k;
}

TEST(EpilogueFusion, BitExactAgainstTwoPassAllKinds) {
  for (const EpilogueKind kind :
       {EpilogueKind::kBiasAdd, EpilogueKind::kRelu, EpilogueKind::kBiasAddRelu,
        EpilogueKind::kReluGrad}) {
    expect_fusion_bit_exact(kind, 33, 47, 29, 1.0f, 0.0f, 1);
    // Edge tiles in both directions and multiple k-blocks.
    const auto [mr, nr] = float_tile(active_isa());
    expect_fusion_bit_exact(kind, mr + 1, nr + 1, 300, 1.0f, 0.0f, 1);
    // alpha/beta interact with the epilogue only through the product value.
    expect_fusion_bit_exact(kind, 40, 24, 16, -1.5f, 0.5f, 1);
  }
}

TEST(EpilogueFusion, BitExactUnderThreading) {
  for (const EpilogueKind kind : {EpilogueKind::kBiasAddRelu, EpilogueKind::kReluGrad}) {
    expect_fusion_bit_exact(kind, 64, 96, 130, 1.0f, 0.0f, 4);
  }
}

TEST(EpilogueFusion, DegenerateKStillAppliesEpilogue) {
  // k == 0 short-circuits the engine; the epilogue must still run.
  Matrix<float> c(2, 3), bias(1, 3);
  for (auto& v : c.span()) v = -1.0f;
  bias(0, 0) = 0.5f;
  bias(0, 1) = 2.0f;
  bias(0, 2) = -3.0f;
  Epilogue<float> ep{EpilogueKind::kBiasAddRelu, bias.data(), {}};
  const MatrixView<const float> empty_a{nullptr, 2, 0, 0};
  const MatrixView<const float> empty_b{nullptr, 0, 3, 3};
  gemm_planned<float>(Trans::kNo, empty_a, nullptr, Trans::kNo, empty_b, nullptr,
                      c.view(), 1.0f, 1.0f, ep);
  // c = relu(beta * (-1) + bias).
  EXPECT_EQ(c(0, 0), 0.0f);
  EXPECT_EQ(c(1, 1), 1.0f);
  EXPECT_EQ(c(1, 2), 0.0f);
}

TEST(PlannedGemm, ParallelBitIdenticalToSerial) {
  Rng rng(99);
  const index_t m = 70, n = 150, k = 280;
  Matrix<float> a(m, k), b(k, n), c1(m, n), c4(m, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c1.view(), 1.0f, 0.0f,
                    {}, 1);
  gemm_fused<float>(Trans::kNo, Trans::kNo, a.view(), b.view(), c4.view(), 1.0f, 0.0f,
                    {}, 4);
  EXPECT_EQ(max_abs_diff(c1.view(), c4.view()), 0.0);
}

TEST(PlannedGemm, PrepackedBitIdenticalToOnTheFly) {
  // A prepacked panel holds exactly the bytes on-the-fly packing would
  // produce, so results must match bit for bit, not just to tolerance.
  Rng rng(7);
  const index_t m = 61, n = 77, k = 131;
  Matrix<float> a(k, m), b(k, n), c_packed(m, n), c_plain(m, n);  // A stored as A^T
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const PackedPanel<float> pa = PackedPanel<float>::pack_a(true, a.view().as_const());
  const PackedPanel<float> pb = PackedPanel<float>::pack_b(false, b.view().as_const());
  gemm_planned<float>(Trans::kYes, a.view().as_const(), &pa, Trans::kNo,
                      b.view().as_const(), &pb, c_packed.view());
  gemm_planned<float>(Trans::kYes, a.view().as_const(), nullptr, Trans::kNo,
                      b.view().as_const(), nullptr, c_plain.view());
  EXPECT_EQ(max_abs_diff(c_packed.view(), c_plain.view()), 0.0);
}

TEST(GemmPlan, PanelsMatchedByShapeAndReusedAcrossCalls) {
  Rng rng(11);
  const index_t k = 96, n = 64;
  Matrix<float> w(k, n), x1(33, k), x2(70, k), c(33, n), c_ref(33, n), d(70, n),
      d_ref(70, n);
  fill_random_uniform<float>(w.view(), rng);
  fill_random_uniform<float>(x1.view(), rng);
  fill_random_uniform<float>(x2.view(), rng);

  GemmPlan<float> plan;
  EXPECT_FALSE(plan.has_packed_b());
  plan.set_packed_b(false, w.view().as_const());
  EXPECT_TRUE(plan.has_packed_b());
  EXPECT_NE(plan.packed_b_for(k, n), nullptr);
  EXPECT_EQ(plan.packed_b_for(n, k), nullptr);  // wrong op-shape: ignored
  EXPECT_EQ(plan.packed_a_for(k, n), nullptr);  // side A never packed

  // Two different batch sizes against the same packed weights.
  plan.run(Trans::kNo, x1.view().as_const(), Trans::kNo, w.view().as_const(), c.view());
  plan.run(Trans::kNo, x2.view().as_const(), Trans::kNo, w.view().as_const(), d.view());
  gemm_reference<float>(Trans::kNo, Trans::kNo, 33, n, k, 1.0f, x1.data(), x1.ld(),
                        w.data(), w.ld(), 0.0f, c_ref.data(), c_ref.ld());
  gemm_reference<float>(Trans::kNo, Trans::kNo, 70, n, k, 1.0f, x2.data(), x2.ld(),
                        w.data(), w.ld(), 0.0f, d_ref.data(), d_ref.ld());
  EXPECT_LT(relative_frobenius_error(c.view().as_const(), c_ref.view().as_const()),
            2e-5);
  EXPECT_LT(relative_frobenius_error(d.view().as_const(), d_ref.view().as_const()),
            2e-5);

  plan.reset();
  EXPECT_FALSE(plan.has_packed_b());
}

TEST(GemmPlan, TransposedWeightPackMatchesExplicitTranspose) {
  Rng rng(13);
  const index_t in = 45, out = 52, batch = 21;
  Matrix<float> w(in, out), dy(batch, out), dx_planned(batch, in), dx_ref(batch, in);
  fill_random_uniform<float>(w.view(), rng);
  fill_random_uniform<float>(dy.view(), rng);

  // dx = dy * W^T with W^T packed once from the stored W.
  GemmPlan<float> plan;
  plan.set_packed_b(/*trans=*/true, w.view().as_const());
  plan.run(Trans::kNo, dy.view().as_const(), Trans::kYes, w.view().as_const(),
           dx_planned.view());
  gemm_reference<float>(Trans::kNo, Trans::kYes, batch, in, out, 1.0f, dy.data(),
                        dy.ld(), w.data(), w.ld(), 0.0f, dx_ref.data(), dx_ref.ld());
  EXPECT_LT(
      relative_frobenius_error(dx_planned.view().as_const(), dx_ref.view().as_const()),
      2e-5);
}

TEST(PlannedGemm, MismatchedPanelIsRejected) {
  Matrix<float> a(8, 8), b(8, 8), c(8, 8);
  a.set_zero();
  b.set_zero();
  const PackedPanel<float> pa = PackedPanel<float>::pack_a(false, a.view().as_const());
  Matrix<float> a_small(4, 8), c_small(4, 8);
  a_small.set_zero();
  // Panel packed for 8x8 op(A) passed with a 4x8 view: hard error, never a
  // silent wrong answer.
  EXPECT_THROW(gemm_planned<float>(Trans::kNo, a_small.view().as_const(), &pa,
                                   Trans::kNo, b.view().as_const(), nullptr,
                                   c_small.view()),
               ApaError);
}

}  // namespace
}  // namespace apa::blas
