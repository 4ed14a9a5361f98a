// Microbenchmark for the pack-once GEMM plan layer: forward-layer matmul
// (batch x dim times dim x dim weights, the MLP training shape) evaluated
// three ways per backend:
//
//   plain     - gemm packing both operands on the fly, then the old two-pass
//               epilogue (separate bias-add and ReLU sweeps over the output);
//   prepacked - weights packed once into a GemmPlan, epilogue still two-pass;
//   fused     - prepacked weights plus the bias+ReLU epilogue fused into the
//               macro-kernel (what DenseLayer::forward now issues).
//
// The APA backend ignores plans (the executor packs per sub-block and
// prepacks its own aliased single-term blocks), so its three variants track
// the epilogue handling and the executor-internal prepacking trajectory.
//
// A second table packs APA operands, one row per operand layout (A or B,
// stored untransposed or transposed): every A- or B-side operand of one
// fast444 step on 1536 x 1536 inputs (the paradnn product), packed
// the way the executor's bottom level packed it before fused packing (the
// write-once combine into a temporary, then the gemm pack of the temporary)
// and the way it packs it now (the combination gathered straight into the
// micropanels). Both produce the same packed bytes.
//
// Emits BENCH_prepack.json so future PRs can track the perf trajectory.
//
// Usage: micro_prepack [--batches=128,512,2048,4096] [--dim=4096]
//                      [--algos=classical,bini322] [--reps=3]
//                      [--isa=best|avx2|avx512|scalar]
//                      [--json=BENCH_prepack.json]
//                      [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "benchutil/json_writer.h"
#include "blas/combine.h"
#include "blas/packing.h"
#include "blas/plan.h"
#include "core/evaluated_rule.h"
#include "core/params.h"
#include "core/registry.h"
#include "nn/backend.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using apa::index_t;

/// Packs every cache block of one operand (rows x cols logically) for kernel
/// K into `out`, block after block as PackedPanel lays them out.
template <class K>
void pack_operand(bool side_a, std::span<const apa::blas::Scaled<float>> terms,
                  bool trans, index_t rows, index_t cols, float* out) {
  using Shape = apa::blas::detail::BlockShape<K>;
  const index_t tile = side_a ? K::kMr : K::kNr;
  const index_t outer_max = side_a ? Shape::kMc : Shape::kNc;
  const index_t outer_dim = side_a ? rows : cols;
  const index_t depth = side_a ? cols : rows;
  for (index_t oc = 0; oc < outer_dim; oc += outer_max) {
    const index_t len = std::min(outer_max, outer_dim - oc);
    for (index_t pc = 0; pc < depth; pc += Shape::kKc) {
      const index_t kc = std::min(Shape::kKc, depth - pc);
      if (side_a) {
        apa::blas::detail::pack_a<K>(terms, trans, oc, pc, len, kc, out);
      } else {
        apa::blas::detail::pack_b<K>(terms, trans, pc, oc, kc, len, out);
      }
      out += (len + tile - 1) / tile * tile * kc;
    }
  }
}

/// Seconds to pack every A-side (or B-side) operand of one fast444 step over
/// dim x dim inputs, combine + pack and fused.
struct OperandPackTimes {
  apa::bench::TimingResult combine_pack, fused;
};

OperandPackTimes time_operand_packs(bool side_a, bool trans, index_t dim,
                                    const apa::bench::TimingOptions& timing) {
  using namespace apa;
  const core::Rule& rule = core::rule_by_name("fast444");
  const core::EvaluatedRule ev = core::EvaluatedRule::from(
      rule, core::analyze(rule).optimal_lambda(core::kPrecisionBitsSingle, 1));
  const index_t grid_rows = side_a ? ev.m : ev.k;
  const index_t grid_cols = side_a ? ev.k : ev.n;
  const index_t br = dim / grid_rows, bc = dim / grid_cols;
  Rng rng(static_cast<std::uint64_t>(dim) + (side_a ? 1 : 2) + (trans ? 4 : 0));
  Matrix<float> stored(dim, dim);
  fill_random_uniform<float>(stored.view(), rng);

  std::vector<std::vector<blas::Scaled<float>>> operands;
  for (const auto& terms_in : side_a ? ev.u_terms : ev.v_terms) {
    std::vector<blas::Scaled<float>> terms;
    for (const auto& [e, coeff] : terms_in) {
      const index_t r = e / grid_cols, c = e % grid_cols;
      terms.push_back({static_cast<float>(coeff),
                       trans ? stored.view().as_const().block(c * bc, r * br, bc, br)
                             : stored.view().as_const().block(r * br, c * bc, br, bc)});
    }
    operands.push_back(std::move(terms));
  }
  Matrix<float> temp(br, bc);
  // Generous for every kernel's zero-padded panels.
  std::vector<float> packed(static_cast<std::size_t>((br + 64) * (bc + 64)));

  OperandPackTimes times;
  blas::detail::with_kernel<float>(blas::active_isa(), [&](auto kernel) {
    using K = decltype(kernel);
    times.combine_pack = bench::time_workload(
        [&] {
          for (const auto& terms : operands) {
            if (terms.size() == 1 && terms[0].coeff == 1.0f) {
              // Aliased block: packed straight from the input, as before.
              pack_operand<K>(side_a, terms, trans, br, bc, packed.data());
              continue;
            }
            if (trans) {
              blas::linear_combination_transposed<float>(terms, temp.view());
            } else {
              blas::linear_combination<float>(terms, temp.view());
            }
            const blas::Scaled<float> one[] = {{1.0f, temp.view().as_const()}};
            pack_operand<K>(side_a, one, false, br, bc, packed.data());
          }
        },
        timing);
    times.fused = bench::time_workload(
        [&] {
          for (const auto& terms : operands) {
            pack_operand<K>(side_a, terms, trans, br, bc, packed.data());
          }
        },
        timing);
  });
  return times;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  obs::ObsSession obs_session(
      args.get("trace-out", ""), args.get("metrics-out", ""),
      static_cast<std::uint64_t>(args.get_int("trace-cap", 0)));
  const auto batches = args.get_int_list("batches", {128, 512, 2048, 4096});
  const long dim = static_cast<long>(args.get_int("dim", 4096));
  const auto algos = args.get_list("algos", {"classical", "bini322"});
  bench::TimingOptions timing;
  timing.reps = static_cast<int>(args.get_int("reps", 3));

  std::printf("micro_prepack: y = relu(x*W + b), W %ld x %ld\n", dim, dim);
  std::printf("plain = on-the-fly packing + separate bias and ReLU passes\n\n");
  TablePrinter table({"backend", "batch", "plain-s", "prepacked-s", "fused-s",
                      "x-prepacked", "x-fused", "fused-GFLOPS"});

  bench::BenchJsonWriter writer("micro_prepack");
  for (const auto& algo : algos) {
    nn::BackendOptions options;
    const nn::MatmulBackend backend(algo, options);
    Rng rng(static_cast<std::uint64_t>(dim));
    Matrix<float> w(dim, dim), bias(1, dim);
    fill_random_uniform<float>(w.view(), rng);
    fill_random_uniform<float>(bias.view(), rng);

    for (const auto batch_i : batches) {
      const long batch = static_cast<long>(batch_i);
      Matrix<float> x(batch, dim), y(batch, dim);
      fill_random_uniform<float>(x.view(), rng);

      blas::Epilogue<float> epilogue;
      epilogue.kind = blas::EpilogueKind::kBiasAddRelu;
      epilogue.bias = bias.data();
      blas::Epilogue<float> bias_only{blas::EpilogueKind::kBiasAdd, bias.data(), {}};
      blas::Epilogue<float> relu_only{blas::EpilogueKind::kRelu, nullptr, {}};

      // Old pipeline: matmul (repacking W every call), then two full sweeps.
      const auto plain = bench::time_workload(
          [&] {
            backend.matmul(x.view().as_const(), w.view().as_const(), y.view());
            blas::apply_epilogue<float>(bias_only, y.view());
            blas::apply_epilogue<float>(relu_only, y.view());
          },
          timing);

      // Weights packed once, reused across timed reps (one optimizer step's
      // worth of forward calls); epilogue still unfused.
      blas::GemmPlan<float> plan;
      plan.set_packed_b(/*trans=*/false, w.view());
      nn::MatmulFusion prepacked_fusion;
      prepacked_fusion.plan = &plan;
      const auto prepacked = bench::time_workload(
          [&] {
            backend.matmul_ex(x.view().as_const(), w.view().as_const(), y.view(),
                              false, false, prepacked_fusion);
            blas::apply_epilogue<float>(bias_only, y.view());
            blas::apply_epilogue<float>(relu_only, y.view());
          },
          timing);

      // What DenseLayer::forward issues: prepacked weights + fused epilogue.
      nn::MatmulFusion fused_fusion;
      fused_fusion.plan = &plan;
      fused_fusion.epilogue = epilogue;
      const auto fused = bench::time_workload(
          [&] {
            backend.matmul_ex(x.view().as_const(), w.view().as_const(), y.view(),
                              false, false, fused_fusion);
          },
          timing);

      obs::JsonRecord row;
      row.set("backend", algo)
          .set("batch", batch)
          .set("dim", dim)
          .set("plain_seconds", plain.min_seconds)
          .set("prepacked_seconds", prepacked.min_seconds)
          .set("fused_seconds", fused.min_seconds)
          .set("speedup_prepacked", plain.min_seconds / prepacked.min_seconds)
          .set("speedup_fused", plain.min_seconds / fused.min_seconds);
      writer.add_row(std::move(row));
      table.add_row(
          {algo, std::to_string(batch), format_double(plain.min_seconds, 4),
           format_double(prepacked.min_seconds, 4), format_double(fused.min_seconds, 4),
           format_double(plain.min_seconds / prepacked.min_seconds, 3),
           format_double(plain.min_seconds / fused.min_seconds, 3),
           format_double(effective_gflops(batch, dim, dim, fused.min_seconds), 1)});
    }
  }

  table.print();

  // fast444's operand shape in the paradnn workload.
  constexpr long operand_dim = 1536;
  const std::string kernel = blas::kernel_name(blas::active_isa());
  std::printf("\nfast444 operand packing, %ld^2 inputs, all 49 operands of one side "
              "(kernel %s)\n",
              operand_dim, kernel.c_str());
  TablePrinter operand_table(
      {"operand", "stored", "combine+pack-ms", "fused-ms", "x-fused"});
  for (const bool side_a : {true, false}) {
    for (const bool trans : {false, true}) {
      const OperandPackTimes t = time_operand_packs(side_a, trans, operand_dim, timing);
      obs::JsonRecord row;
      row.set("operand", side_a ? "A" : "B")
          .set("stored", trans ? "transposed" : "untransposed")
          .set("rule", "fast444")
          .set("dim", operand_dim)
          .set("kernel", kernel)
          .set("combine_pack_seconds", t.combine_pack.min_seconds)
          .set("fused_pack_seconds", t.fused.min_seconds)
          .set("speedup_fused_pack", t.combine_pack.min_seconds / t.fused.min_seconds);
      writer.add_row(std::move(row));
      operand_table.add_row(
          {side_a ? "A" : "B", trans ? "transposed" : "untransposed",
           format_double(t.combine_pack.min_seconds * 1e3, 2),
           format_double(t.fused.min_seconds * 1e3, 2),
           format_double(t.combine_pack.min_seconds / t.fused.min_seconds, 3)});
    }
  }
  operand_table.print();
  writer.write(args.get("json", "BENCH_prepack.json"));
  return 0;
}
