// Ablation A3: error versus lambda sweep — the U-shaped tradeoff behind the
// Bini-Lotti-Romani optimum (paper section 2.3): large lambda is dominated by
// the O(lambda^sigma) approximation term, small lambda by the lambda^-phi
// roundoff amplification. Marks the theoretical optimum for each rule.
//
// Usage: ablation_lambda [--algos=bini322,apa664,apa555] [--dim=240]
//                        [--exp-min=-20] [--exp-max=-4] [--csv=out.csv]

#include <cmath>
#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/isa.h"
#include "core/lambda_opt.h"
#include "core/registry.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto algos = bench::resolve_algorithms(
      args.get_list("algos", {"bini322", "apa422", "apa664", "apa555"}));
  const auto dim = args.get_int("dim", 240);
  const int exp_min = static_cast<int>(args.get_int("exp-min", -20));
  const int exp_max = static_cast<int>(args.get_int("exp-max", -4));

  std::printf("Ablation: relative error vs lambda (dim=%ld, single precision)\n\n",
              static_cast<long>(dim));
  TablePrinter table({"algorithm", "log2-lambda", "rel-error", "at-optimum"});

  for (const auto& name : algos) {
    if (name == "classical") continue;
    const core::Rule& rule = core::rule_by_name(name);
    const auto params = core::analyze(rule);
    if (params.exact) continue;
    const double optimal = params.optimal_lambda(core::kPrecisionBitsSingle, 1);
    const int optimal_exp = static_cast<int>(std::lround(std::log2(optimal)));
    core::LambdaSearchOptions opts;
    opts.dim = dim;
    for (int e = exp_min; e <= exp_max; ++e) {
      const double err = core::measure_error(rule, std::exp2(e), opts);
      table.add_row({name, std::to_string(e), format_sci(err, 2),
                     e == optimal_exp ? "*" : ""});
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected: each algorithm's error is U-shaped in lambda with the minimum\n"
      "at or next to the starred theoretical optimum 2^(-d/(sigma+phi)).\n");
  return 0;
}
