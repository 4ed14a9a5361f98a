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
// Emits BENCH_prepack.json so future PRs can track the perf trajectory.
//
// Usage: micro_prepack [--batches=128,512,2048,4096] [--dim=4096]
//                      [--algos=classical,bini322] [--reps=3]
//                      [--json=BENCH_prepack.json]
//                      [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]

#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "benchutil/json_writer.h"
#include "blas/plan.h"
#include "nn/backend.h"
#include "obs/session.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

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
  writer.write(args.get("json", "BENCH_prepack.json"));
  return 0;
}
