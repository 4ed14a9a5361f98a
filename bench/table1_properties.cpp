// Reproduces Table 1: properties of the APA algorithm catalog — dims, rank,
// theoretical one-step speedup, sigma, phi, and the predicted single-precision
// error 2^(-d*sigma/(sigma+phi)). Prints our constructed ranks next to the
// paper's published ones so the substitution gap (DESIGN.md section 2) is
// explicit.
//
// Usage: table1_properties [--csv=out.csv]

#include <cmath>
#include <cstdio>
#include <string>

#include "benchutil/isa.h"
#include "core/params.h"
#include "core/registry.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);

  std::printf("Table 1: APA/fast algorithm properties (1 recursive step, d = 23)\n\n");
  TablePrinter table({"name", "dims", "rank", "paper-rank", "speedup%", "sigma", "phi",
                      "pred-error", "nnz-in", "nnz-out", "construction"});

  // Classical reference row, as in the paper's first line.
  table.add_row({"classical", "<2,2,2>", "8", "8", "0.0", "-", "0",
                 format_sci(std::exp2(-23), 1), "16", "8", "triple loop"});

  for (const auto& info : core::list_algorithms()) {
    const core::Rule& rule = core::rule_by_name(info.name);
    const core::AlgorithmParams p = core::analyze(rule);
    const std::string dims = "<" + std::to_string(info.m) + "," + std::to_string(info.k) +
                             "," + std::to_string(info.n) + ">";
    table.add_row({info.name, dims, std::to_string(info.rank),
                   info.paper_rank > 0 ? std::to_string(info.paper_rank) : "-",
                   format_double(100.0 * p.speedup, 1),
                   p.exact ? "-" : std::to_string(p.sigma), std::to_string(p.phi),
                   format_sci(p.predicted_error(core::kPrecisionBitsSingle, 1), 1),
                   std::to_string(p.nnz_inputs), std::to_string(p.nnz_outputs),
                   info.construction});
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\npaper-rank: rank of the original published algorithm (Table 1); our\n"
      "constructions have equal or higher rank, hence smaller speedup, but the\n"
      "same sigma and comparable phi (error class).\n");
  return 0;
}
