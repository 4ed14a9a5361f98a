// Fused packing parity: gathering an operand's linear combination straight
// into the gemm micropanels must give, bit for bit, the panels that combining
// into a temporary (linear_combination, or linear_combination_transposed for
// stored-transposed terms) and then packing that temporary give. Covered for
// every registry rule's A- and B-side term lists at lambda = 1 and at its
// float auto-lambda, for a synthetic 5-term list (the generic arity), for
// stored-transposed terms off and on, on every kernel's panel geometry, over
// rows and columns that are no multiple of MR/NR and a k range with a KC tail.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "blas/combine.h"
#include "blas/isa.h"
#include "blas/microkernel.h"
#include "blas/packing.h"
#include "core/evaluated_rule.h"
#include "core/params.h"
#include "core/registry.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::blas {

// Names the kernel in failure messages; defined in kernel_parity_test.cpp.
void PrintTo(Isa isa, std::ostream* os);

namespace {

enum class Side { kA, kB };

/// The panels a cache-blocked gemm packs from the logical operand `op`
/// (m x k for side A, k x n for side B), spelled out element by element: for
/// A, panel p of block (ic, pc) holds op(ic + p*MR + i, pc + k) at [k][i];
/// for B, panel q of block (pc, jc) holds op(pc + k, jc + q*NR + j) at
/// [k][j]; rows (columns) past the operand's edge are zero. Blocks follow
/// each other in (outer, k) order.
template <class K, class T>
std::vector<T> reference_panels(Side side, MatrixView<const T> op) {
  using Shape = detail::BlockShape<K>;
  const index_t tile = side == Side::kA ? K::kMr : K::kNr;
  const index_t outer_max = side == Side::kA ? Shape::kMc : Shape::kNc;
  const index_t outer_dim = side == Side::kA ? op.rows : op.cols;
  const index_t depth = side == Side::kA ? op.cols : op.rows;
  std::vector<T> out;
  for (index_t oc = 0; oc < outer_dim; oc += outer_max) {
    const index_t oc_len = std::min(outer_max, outer_dim - oc);
    for (index_t pc = 0; pc < depth; pc += Shape::kKc) {
      const index_t kc = std::min(Shape::kKc, depth - pc);
      for (index_t p0 = 0; p0 < oc_len; p0 += tile) {
        for (index_t k = 0; k < kc; ++k) {
          for (index_t i = 0; i < tile; ++i) {
            const index_t o = oc + p0 + i;
            const bool inside = p0 + i < oc_len;
            out.push_back(!inside             ? T{0}
                          : side == Side::kA ? op(o, pc + k)
                                              : op(pc + k, o));
          }
        }
      }
    }
  }
  return out;
}

/// The library's fused packer over the same block walk.
template <class K, class T>
std::vector<T> fused_panels(Side side, std::span<const Scaled<T>> terms, bool trans,
                            index_t op_rows, index_t op_cols) {
  using Shape = detail::BlockShape<K>;
  const index_t tile = side == Side::kA ? K::kMr : K::kNr;
  const index_t outer_max = side == Side::kA ? Shape::kMc : Shape::kNc;
  const index_t outer_dim = side == Side::kA ? op_rows : op_cols;
  const index_t depth = side == Side::kA ? op_cols : op_rows;
  std::vector<T> out;
  for (index_t oc = 0; oc < outer_dim; oc += outer_max) {
    const index_t oc_len = std::min(outer_max, outer_dim - oc);
    const index_t padded = (oc_len + tile - 1) / tile * tile;
    for (index_t pc = 0; pc < depth; pc += Shape::kKc) {
      const index_t kc = std::min(Shape::kKc, depth - pc);
      std::vector<T> block(static_cast<std::size_t>(padded * kc), T{-7});
      if (side == Side::kA) {
        detail::pack_a<K>(terms, trans, oc, pc, oc_len, kc, block.data());
      } else {
        detail::pack_b<K>(terms, trans, pc, oc, kc, oc_len, block.data());
      }
      out.insert(out.end(), block.begin(), block.end());
    }
  }
  return out;
}

/// Logical block (r, c) of a grid of br x bc blocks over a logical operand
/// stored as `stored` (transposed when `trans`): the stored view a term
/// refers to.
template <class T>
MatrixView<const T> stored_block(MatrixView<const T> stored, bool trans, index_t r,
                                 index_t c, index_t br, index_t bc) {
  return trans ? stored.block(c * bc, r * br, bc, br) : stored.block(r * br, c * bc, br, bc);
}

/// Expects the fused panels of `terms` (each a stored view of the logical
/// rows x cols operand, transposed when `trans`) to equal the panels of the
/// combined temporary, on kernel K.
template <class K, class T>
void expect_fused_matches_combined(Side side, std::span<const Scaled<T>> terms,
                                   bool trans, index_t rows, index_t cols,
                                   const std::string& where) {
  Matrix<T> temp(rows, cols);
  if (trans) {
    linear_combination_transposed<T>(terms, temp.view());
  } else {
    linear_combination<T>(terms, temp.view());
  }
  const std::vector<T> want = reference_panels<K, T>(side, temp.view().as_const());
  const std::vector<T> got = fused_panels<K, T>(side, terms, trans, rows, cols);
  ASSERT_EQ(got.size(), want.size()) << where;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise: equal values with different representations (+0 / -0) differ.
    mismatches += std::memcmp(&got[i], &want[i], sizeof(T)) != 0;
  }
  EXPECT_EQ(mismatches, 0u) << where << " (" << got.size() << " packed elements)";
}

class FusedPackParity : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    if (!isa_supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks " << isa_name(GetParam()) << "; kernel not covered";
    }
  }
};

// Block sizes: rows and columns no multiple of any MR (6, 14, 4, 8) or NR
// (16, 32, 8), the k extent past one KC (256) with a tail.
constexpr index_t kBm = 131;
constexpr index_t kBk = 270;
constexpr index_t kBn = 45;

TEST_P(FusedPackParity, RegistryRuleTermsMatchCombineThenPack) {
  std::printf("[ kernel   ] covering %s\n", kernel_name(GetParam()).c_str());
  detail::with_kernel<float>(GetParam(), [](auto kernel) {
    using K = decltype(kernel);
    for (const std::string& name : core::algorithm_names()) {
      const core::Rule& rule = core::rule_by_name(name);
      const double auto_lambda =
          core::analyze(rule).optimal_lambda(core::kPrecisionBitsSingle, 1);
      for (const double lambda : {1.0, auto_lambda}) {
        const core::EvaluatedRule ev = core::EvaluatedRule::from(rule, lambda);
        for (const bool trans : {false, true}) {
          Rng rng(static_cast<std::uint64_t>(ev.m * 131 + ev.k * 17 + ev.n + trans));
          // Stored inputs: A is (m*kBm) x (k*kBk) logically, B (k*kBk) x (n*kBn).
          const index_t am = ev.m * kBm, ak = ev.k * kBk, bn = ev.n * kBn;
          Matrix<float> a(trans ? ak : am, trans ? am : ak);
          Matrix<float> b(trans ? bn : ak, trans ? ak : bn);
          fill_random_uniform<float>(a.view(), rng);
          fill_random_uniform<float>(b.view(), rng);
          for (index_t l = 0; l < ev.rank; ++l) {
            const std::string where = name + " lambda=" + std::to_string(lambda) +
                                      " trans=" + std::to_string(trans) +
                                      " product=" + std::to_string(l);
            std::vector<Scaled<float>> at, bt;
            for (const auto& [e, coeff] : ev.u_terms[static_cast<std::size_t>(l)]) {
              at.push_back({static_cast<float>(coeff),
                            stored_block<float>(a.view().as_const(), trans, e / ev.k,
                                                e % ev.k, kBm, kBk)});
            }
            for (const auto& [e, coeff] : ev.v_terms[static_cast<std::size_t>(l)]) {
              bt.push_back({static_cast<float>(coeff),
                            stored_block<float>(b.view().as_const(), trans, e / ev.n,
                                                e % ev.n, kBk, kBn)});
            }
            expect_fused_matches_combined<K, float>(Side::kA, at, trans, kBm, kBk,
                                                    where + " side=A");
            expect_fused_matches_combined<K, float>(Side::kB, bt, trans, kBk, kBn,
                                                    where + " side=B");
          }
        }
      }
    }
  });
}

/// Five terms of mixed-sign, non-unit coefficients: the generic arity, which
/// no registry rule's input side reaches.
template <class K, class T>
void expect_five_term_parity() {
  Rng rng(55);
  const T coeffs[] = {T(0.75), T(-1.3), T(2.0) / T(3.0), T(-0.01), T(5.5)};
  for (const bool trans : {false, true}) {
    for (const Side side : {Side::kA, Side::kB}) {
      const index_t rows = side == Side::kA ? kBm : kBk;
      const index_t cols = side == Side::kA ? kBk : kBn;
      std::vector<Matrix<T>> stored;
      std::vector<Scaled<T>> terms;
      for (std::size_t t = 0; t < std::size(coeffs); ++t) {
        stored.emplace_back(trans ? cols : rows, trans ? rows : cols);
        fill_random_uniform<T>(stored.back().view(), rng);
      }
      for (std::size_t t = 0; t < stored.size(); ++t) {
        terms.push_back({coeffs[t], stored[t].view().as_const()});
      }
      expect_fused_matches_combined<K, T>(
          side, terms, trans, rows, cols,
          std::string("five terms side=") + (side == Side::kA ? "A" : "B") +
              " trans=" + std::to_string(trans));
    }
  }
}

TEST_P(FusedPackParity, GenericFiveTermListMatchesCombineThenPack) {
  detail::with_kernel<float>(GetParam(), [](auto kernel) {
    expect_five_term_parity<decltype(kernel), float>();
  });
  detail::with_kernel<double>(GetParam(), [](auto kernel) {
    expect_five_term_parity<decltype(kernel), double>();
  });
}

std::string kernel_test_name(const ::testing::TestParamInfo<Isa>& info) {
  return isa_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Kernels, FusedPackParity, ::testing::ValuesIn(kAllIsas),
                         kernel_test_name);

}  // namespace
}  // namespace apa::blas
