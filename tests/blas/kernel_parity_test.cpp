// Every gemm microkernel the CPU supports, driven through gemm_planned: the
// scalar, AVX2 and AVX-512 kernels must agree with the double-accumulating
// reference, and the two SIMD kernels with each other bit for bit (both
// accumulate with FMA over the same k blocks in the same order).

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "blas/gemm.h"
#include "blas/isa.h"
#include "blas/plan.h"
#include "support/check.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::blas {

// Names the kernel in gtest's failure messages ("GetParam() = avx2").
void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }

namespace {

/// Pins the process-wide kernel for one scope.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : saved_(active_isa()) { set_isa(isa); }
  ~ScopedIsa() { set_isa(saved_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa saved_;
};

struct Shape {
  index_t m, n, k;
};

// Tile edges of both register shapes (6x16, 14x32), k > KC (two k blocks)
// and m > MC (two A blocks).
constexpr Shape kShapes[] = {{1, 1, 1},    {5, 15, 7},   {13, 31, 17},
                             {15, 33, 300}, {29, 65, 9}, {130, 47, 257}};
constexpr EpilogueKind kEpilogues[] = {EpilogueKind::kNone, EpilogueKind::kBiasAdd,
                                       EpilogueKind::kRelu, EpilogueKind::kBiasAddRelu,
                                       EpilogueKind::kReluGrad};
constexpr Trans kTrans[] = {Trans::kNo, Trans::kYes};

/// Stored operands for one (transposes, shape) case, plus the epilogue's
/// bias and gate and the initial contents of C.
template <class T>
struct Operands {
  Operands(Trans ta, Trans tb, Shape s)
      : a(ta == Trans::kYes ? s.k : s.m, ta == Trans::kYes ? s.m : s.k),
        b(tb == Trans::kYes ? s.n : s.k, tb == Trans::kYes ? s.k : s.n),
        bias(1, s.n),
        gate(s.m, s.n),
        c0(s.m, s.n) {
    Rng rng(static_cast<std::uint64_t>(s.m * 7919 + s.n * 104729 + s.k * 31 +
                                       (ta == Trans::kYes ? 1 : 0) +
                                       (tb == Trans::kYes ? 2 : 0)));
    fill_random_uniform<T>(a.view(), rng);
    fill_random_uniform<T>(b.view(), rng);
    fill_random_uniform<T>(bias.view(), rng);
    fill_random_uniform<T>(gate.view(), rng);
    for (auto& g : gate.span()) g -= T(0.5);  // mixed signs, so the gate cuts
    fill_random_uniform<T>(c0.view(), rng);
    for (auto& v : c0.span()) v -= T(0.5);    // and ReLU cuts when beta = 1
  }

  [[nodiscard]] Epilogue<T> epilogue(EpilogueKind kind) const {
    return {kind, bias.data(), gate.view().as_const()};
  }

  Matrix<T> a, b, bias, gate, c0;
};

/// c = op(A) op(B) + beta c0, then the epilogue, on the active kernel.
template <class T>
Matrix<T> run_planned(const Operands<T>& ops, Trans ta, Trans tb, EpilogueKind kind,
                      T beta, bool prepack, int threads) {
  Matrix<T> c(ops.c0.rows(), ops.c0.cols());
  copy(ops.c0.view().as_const(), c.view());
  PackedPanel<T> pa, pb;
  if (prepack) {
    pa = PackedPanel<T>::pack_a(ta == Trans::kYes, ops.a.view().as_const());
    pb = PackedPanel<T>::pack_b(tb == Trans::kYes, ops.b.view().as_const());
  }
  gemm_planned<T>(ta, ops.a.view().as_const(), prepack ? &pa : nullptr, tb,
                  ops.b.view().as_const(), prepack ? &pb : nullptr, c.view(), T{1}, beta,
                  ops.epilogue(kind), threads);
  return c;
}

/// The unfused reference: gemm_reference, then a separate epilogue pass.
template <class T>
Matrix<T> run_reference(const Operands<T>& ops, Trans ta, Trans tb, Shape s,
                        EpilogueKind kind, T beta) {
  Matrix<T> c(s.m, s.n);
  copy(ops.c0.view().as_const(), c.view());
  gemm_reference<T>(ta, tb, s.m, s.n, s.k, T{1}, ops.a.data(), ops.a.ld(), ops.b.data(),
                    ops.b.ld(), beta, c.data(), c.ld());
  apply_epilogue<T>(ops.epilogue(kind), c.view());
  return c;
}

/// Calls f(ops, ta, tb, shape, epilogue, beta) over the whole case grid.
template <class T, class F>
void for_each_case(F&& f) {
  for (const Trans ta : kTrans) {
    for (const Trans tb : kTrans) {
      for (const Shape s : kShapes) {
        const Operands<T> ops(ta, tb, s);
        for (const EpilogueKind kind : kEpilogues) {
          for (const T beta : {T{0}, T{1}}) f(ops, ta, tb, s, kind, beta);
        }
      }
    }
  }
}

std::string describe(Trans ta, Trans tb, Shape s, EpilogueKind kind, double beta) {
  return "ta=" + std::to_string(ta == Trans::kYes) +
         " tb=" + std::to_string(tb == Trans::kYes) + " m=" + std::to_string(s.m) +
         " n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) +
         " epilogue=" + std::to_string(static_cast<int>(kind)) +
         " beta=" + std::to_string(beta);
}

/// Each case against the reference within `tol`; the prepacked and 2-thread
/// runs of the same kernel must reproduce its serial on-the-fly run exactly.
template <class T>
void expect_kernel_matches_reference(double tol) {
  for_each_case<T>([tol](const Operands<T>& ops, Trans ta, Trans tb, Shape s,
                         EpilogueKind kind, T beta) {
    const std::string where = describe(ta, tb, s, kind, static_cast<double>(beta));
    const Matrix<T> ref = run_reference(ops, ta, tb, s, kind, beta);
    const Matrix<T> base = run_planned(ops, ta, tb, kind, beta, false, 1);
    EXPECT_LT(relative_frobenius_error(base.view().as_const(), ref.view().as_const()),
              tol)
        << where;
    for (const bool prepack : {false, true}) {
      for (const int threads : {1, 2}) {
        if (!prepack && threads == 1) continue;
        const Matrix<T> other = run_planned(ops, ta, tb, kind, beta, prepack, threads);
        EXPECT_EQ(max_abs_diff(other.view(), base.view()), 0.0)
            << where << " prepack=" << prepack << " threads=" << threads;
      }
    }
  });
}

class KernelParity : public ::testing::TestWithParam<Isa> {};

TEST_P(KernelParity, MatchesReferenceOverTransposesEpiloguesPanelsAndThreads) {
  const Isa isa = GetParam();
  if (!isa_supported(isa)) {
    GTEST_SKIP() << "this CPU lacks " << isa_name(isa) << "; kernel not covered";
  }
  std::printf("[ kernel   ] covering %s\n", kernel_name(isa).c_str());
  const ScopedIsa pin(isa);
  expect_kernel_matches_reference<float>(5e-5);
  expect_kernel_matches_reference<double>(1e-12);
}

std::string kernel_test_name(const ::testing::TestParamInfo<Isa>& info) {
  return isa_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelParity, ::testing::ValuesIn(kAllIsas),
                         kernel_test_name);

template <class T>
void expect_avx512_bit_identical_to_avx2() {
  for_each_case<T>([](const Operands<T>& ops, Trans ta, Trans tb, Shape s,
                      EpilogueKind kind, T beta) {
    for (const bool prepack : {false, true}) {
      for (const int threads : {1, 2}) {
        Matrix<T> avx2_c, avx512_c;
        {
          const ScopedIsa pin(Isa::kAvx2);
          avx2_c = run_planned(ops, ta, tb, kind, beta, prepack, threads);
        }
        {
          const ScopedIsa pin(Isa::kAvx512);
          avx512_c = run_planned(ops, ta, tb, kind, beta, prepack, threads);
        }
        EXPECT_EQ(max_abs_diff(avx512_c.view(), avx2_c.view()), 0.0)
            << describe(ta, tb, s, kind, static_cast<double>(beta))
            << " prepack=" << prepack << " threads=" << threads;
      }
    }
  });
}

TEST(KernelParity, Avx512BitIdenticalToAvx2) {
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (!isa_supported(isa)) {
      GTEST_SKIP() << "this CPU lacks " << isa_name(isa) << "; comparison not run";
    }
  }
  expect_avx512_bit_identical_to_avx2<float>();
  expect_avx512_bit_identical_to_avx2<double>();
}

TEST(KernelParity, DefaultIsTheWidestSupportedKernel) {
  std::printf("[ kernel   ] gemm_planned runs %s\n", kernel_name(active_isa()).c_str());
  EXPECT_EQ(active_isa(), best_isa());
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  for (const Isa isa : kAllIsas) {
    if (isa_supported(isa)) {
      EXPECT_LE(static_cast<int>(isa), static_cast<int>(best_isa()));
    } else {
      EXPECT_THROW(set_isa(isa), ApaError) << isa_name(isa);
    }
  }
}

TEST(KernelParity, PanelPackedForAnotherKernelIsRejected) {
  if (best_isa() == Isa::kScalar) {
    GTEST_SKIP() << "only the scalar kernel runs on this CPU";
  }
  Rng rng(5);
  Matrix<float> a(20, 24), b(24, 40), c(20, 40), ref(20, 40);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  PackedPanel<float> pa;
  GemmPlan<float> plan;
  {
    const ScopedIsa pin(Isa::kScalar);
    pa = PackedPanel<float>::pack_a(false, a.view().as_const());
    plan.set_packed_b(false, b.view().as_const());
  }
  ASSERT_EQ(pa.isa(), Isa::kScalar);
  // Passed explicitly, a panel packed for another kernel is a hard error
  // (the scalar and AVX2 tiles even share a shape; the tag still differs).
  EXPECT_THROW(gemm_planned<float>(Trans::kNo, a.view().as_const(), &pa, Trans::kNo,
                                   b.view().as_const(), nullptr, c.view()),
               ApaError);
  // A plan holding it no longer offers it and packs on the fly instead.
  EXPECT_EQ(plan.packed_b_for(24, 40), nullptr);
  plan.run(Trans::kNo, a.view().as_const(), Trans::kNo, b.view().as_const(), c.view());
  gemm_reference<float>(Trans::kNo, Trans::kNo, 20, 40, 24, 1.0f, a.data(), a.ld(),
                        b.data(), b.ld(), 0.0f, ref.data(), ref.ld());
  EXPECT_LT(relative_frobenius_error(c.view().as_const(), ref.view().as_const()), 2e-5);
}

}  // namespace
}  // namespace apa::blas
