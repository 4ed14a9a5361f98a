// Ablation A2: one versus two recursive steps (paper section 2.4 argues only
// 1-2 steps pay off in practice, and section 2.3 predicts the error bound
// weakens from 2^(-d*sigma/(sigma+phi)) to 2^(-d*sigma/(sigma+2*phi))).
// Reports both the timing and the measured error per step count.
//
// Usage: ablation_recursion [--dims=768,1536] [--algos=...] [--csv=out.csv]

#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "core/fastmm.h"
#include "core/lambda_opt.h"
#include "core/registry.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto dims = args.get_int_list("dims", {768, 1536});
  const auto algos = bench::resolve_algorithms(
      args.get_list("algos", {"classical", "strassen", "bini322", "fast444"}));

  std::printf("Ablation: recursive depth (1 vs 2 steps)\n\n");
  TablePrinter table({"algorithm", "dim", "steps", "seconds", "rel-error", "pred-bound"});

  for (const auto dim : dims) {
    Rng rng(static_cast<std::uint64_t>(dim) + 1);
    Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);

    for (const auto& name : algos) {
      const int max_steps = name == "classical" ? 1 : 2;
      for (int steps = 1; steps <= max_steps; ++steps) {
        core::FastMatmulOptions options;
        options.steps = steps;
        const core::FastMatmul mm(name, options);
        const auto result = bench::time_workload(
            [&] { mm.multiply(a.view().as_const(), b.view().as_const(), c.view()); });

        std::string error = "-", bound = "-";
        if (name != "classical") {
          const core::Rule& rule = core::rule_by_name(name);
          core::LambdaSearchOptions err_opts;
          err_opts.dim = 240;  // error is dimension-flat (Fig 1); keep it cheap
          err_opts.steps = steps;
          error = format_sci(
              core::measure_error(rule, mm.lambda(), err_opts), 2);
          bound = format_sci(
              mm.params().predicted_error(core::kPrecisionBitsSingle, steps), 2);
        }
        table.add_row({name, std::to_string(dim), std::to_string(steps),
                       format_double(result.min_seconds, 4), error, bound});
      }
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected: step 2 only pays off for large dims (smaller sub-gemms lose\n"
      "efficiency) and costs an error-class downgrade for APA rules.\n");
  return 0;
}
