// Reproduces Fig 1: relative Frobenius-norm error of each APA algorithm on
// uniform random single-precision inputs versus matrix dimension, with lambda
// chosen as the best of the 5 powers of two nearest the theoretical optimum
// (the paper's protocol, section 2.3). The classical row shows the
// single-precision baseline error against the double-precision reference.
//
// Usage: fig1_error [--dims=240,480,960] [--algos=all|apa|list] [--csv=out.csv]

#include <cstdio>

#include <cmath>

#include "benchutil/algos.h"
#include "benchutil/isa.h"
#include "core/catalog.h"
#include "core/lambda_opt.h"
#include "core/registry.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto dims = args.get_int_list("dims", {240, 480, 960});
  const auto algos = bench::resolve_algorithms(args.get_list("algos", {"all"}));

  std::printf("Fig 1: relative Frobenius error vs dimension (lambda = best of 5)\n\n");
  TablePrinter table({"algorithm", "dim", "lambda", "rel-error", "pred-bound"});

  for (const auto& name : algos) {
    for (const auto dim : dims) {
      core::LambdaSearchOptions opts;
      opts.dim = dim;
      if (name == "classical") {
        // Single-precision gemm against the double-precision reference.
        const double err =
            core::measure_error(core::classical(1, 1, 1), 1.0, opts);
        table.add_row({name, std::to_string(dim), "-", format_sci(err, 2),
                       format_sci(std::exp2(-23), 2)});
        continue;
      }
      const core::Rule& rule = core::rule_by_name(name);
      const auto search = core::optimize_lambda(rule, opts);
      const auto params = core::analyze(rule);
      table.add_row({name, std::to_string(dim), format_sci(search.best_lambda, 2),
                     format_sci(search.best_error, 2),
                     format_sci(params.predicted_error(core::kPrecisionBitsSingle, 1), 2)});
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 1): error is flat in dimension, ordered by the\n"
      "(sigma, phi) classes, and bounded by pred-bound.\n");
  return 0;
}
