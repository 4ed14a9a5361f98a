// Ablation A1 (functional counterpart of the paper's Fig 2 discussion):
// compares the four scheduling strategies — sequential, DFS (multithreaded
// gemm per product), BFS (one thread per product), and the paper's hybrid —
// at a fixed problem size. On a multicore host the expected ordering is
// hybrid <= bfs <= dfs for products that don't divide the thread count; on a
// single-core host the strategies should be within noise of one another
// (correctness is asserted by the test suite, this bench reports times).
//
// Usage: ablation_strategy [--dim=768] [--threads=N] [--algos=...] [--csv=out.csv]

#include <omp.h>

#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "core/fastmm.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto dim = args.get_int("dim", 768);
  const int thread_count = static_cast<int>(args.get_int("threads", omp_get_num_procs()));
  const auto algos = bench::resolve_algorithms(
      args.get_list("algos", {"bini322", "fast442", "fast444"}));

  std::printf("Ablation: parallel strategy comparison, dim=%ld, threads=%d\n\n",
              static_cast<long>(dim), thread_count);
  TablePrinter table({"algorithm", "strategy", "seconds", "vs-sequential"});

  Rng rng(5);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);

  for (const auto& name : algos) {
    if (name == "classical") continue;
    double sequential_seconds = 0;
    for (const core::Strategy strategy :
         {core::Strategy::kSequential, core::Strategy::kDfs, core::Strategy::kBfs,
          core::Strategy::kHybrid}) {
      core::FastMatmulOptions options;
      options.strategy = strategy;
      options.num_threads =
          strategy == core::Strategy::kSequential ? 1 : thread_count;
      const core::FastMatmul mm(name, options);
      bench::TimingOptions timing;
      timing.reps = 5;
      timing.min_total_seconds = 0.5;  // sub-50ms workloads jitter badly on VMs
      const auto result = bench::time_workload(
          [&] { mm.multiply(a.view().as_const(), b.view().as_const(), c.view()); },
          timing);
      if (strategy == core::Strategy::kSequential) {
        sequential_seconds = result.min_seconds;
      }
      table.add_row({name, core::to_string(strategy),
                     format_double(result.min_seconds, 4),
                     format_double(sequential_seconds / result.min_seconds, 3)});
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  return 0;
}
