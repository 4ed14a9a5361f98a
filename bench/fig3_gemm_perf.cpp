// Reproduces Fig 3 (a/b/c): standalone square matrix-multiplication
// performance of every algorithm versus the classical baseline, in effective
// GFLOPS (2n^3 / time — the paper's metric, which compares *time* at equal
// problem size, not hardware flop rate).
//
// The paper runs 1, 6, and 12 threads on a dual-socket Xeon; thread counts
// here default to {1, hw} where hw is the detected core count (see
// EXPERIMENTS.md for the single-core-host caveat). Parallel runs use the
// paper's hybrid strategy.
//
// Usage: fig3_gemm_perf [--dims=256,...] [--threads=1,6,12] [--algos=...]
//                       [--reps=3] [--csv=out.csv]

#include <omp.h>

#include <algorithm>
#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "core/fastmm.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto dims = args.get_int_list(
      "dims", args.get_bool("full") ? std::vector<std::int64_t>{512, 1024, 2048, 4096, 8192}
                                    : std::vector<std::int64_t>{256, 512, 768, 1024, 1536});
  const auto algos = bench::resolve_algorithms(args.get_list(
      "algos", {"classical", "bini322", "apa422", "apa332", "fast442", "apa333",
                "fast444", "apa644", "apa664"}));
  std::vector<std::int64_t> threads =
      args.get_int_list("threads", {1, omp_get_num_procs()});
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  bench::TimingOptions timing;
  timing.reps = static_cast<int>(args.get_int("reps", 3));

  std::printf("Fig 3: square matmul performance, effective GFLOPS = 2n^3/time\n");
  std::printf("(hybrid strategy for multithreaded runs; %d hardware threads)\n\n",
              omp_get_num_procs());
  TablePrinter table({"threads", "algorithm", "dim", "seconds", "eff-GFLOPS",
                      "vs-classical%"});

  for (const auto thread_count : threads) {
    for (const auto dim : dims) {
      Rng rng(static_cast<std::uint64_t>(dim));
      Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
      fill_random_uniform<float>(a.view(), rng);
      fill_random_uniform<float>(b.view(), rng);
      double classical_seconds = 0;
      for (const auto& name : algos) {
        core::FastMatmulOptions options;
        options.num_threads = static_cast<int>(thread_count);
        options.strategy =
            thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
        const core::FastMatmul mm(name, options);
        const auto result = bench::time_workload(
            [&] { mm.multiply(a.view().as_const(), b.view().as_const(), c.view()); },
            timing);
        if (name == "classical") classical_seconds = result.min_seconds;
        const double speedup =
            classical_seconds > 0
                ? 100.0 * (classical_seconds / result.min_seconds - 1.0)
                : 0.0;
        table.add_row({std::to_string(thread_count), name, std::to_string(dim),
                       format_double(result.min_seconds, 4),
                       format_double(effective_gflops(dim, dim, dim,
                                                      result.min_seconds),
                                     1),
                       format_double(speedup, 1)});
      }
    }
  }

  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 3): classical wins at small dims; fast/APA\n"
      "algorithms overtake beyond a crossover (paper: ~2000, here lower because\n"
      "our gemm ramps faster than MKL), with <4,4,4>-shaped rules on top.\n");
  return 0;
}
