// Reproduces Fig 6 (a/b/c): training time of the ParaDnn-style 6-layer MLP
// (4 hidden layers) versus hidden-layer width, with batch size matched to the
// width so the hidden-layer multiplications are square (the paper's setup).
// APA algorithms run the hidden layers; input and output layers stay
// classical. Reported as time per training step relative to the classical
// baseline (the paper plots relative training time).
//
// Usage: fig6_mlp_training [--dims=256,512,1024,1536] [--threads=1,...]
//                          [--algos=...] [--steps=2] [--csv=out.csv] [--full]

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "benchutil/algos.h"
#include "benchutil/harness.h"
#include "benchutil/isa.h"
#include "nn/mlp.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto widths = args.get_int_list(
      "dims", args.get_bool("full") ? std::vector<std::int64_t>{512, 1024, 2048, 4096, 8192}
                                    : std::vector<std::int64_t>{256, 512, 1024, 1536});
  const auto algos = bench::resolve_algorithms(args.get_list(
      "algos", {"classical", "bini322", "fast442", "fast444", "apa644"}));
  std::vector<std::int64_t> threads =
      args.get_int_list("threads", {1, omp_get_num_procs()});
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  const int timed_steps = static_cast<int>(args.get_int("steps", 2));

  std::printf("Fig 6: 6-layer MLP (784-h-h-h-h-10), batch = h, APA on hidden layers\n\n");
  TablePrinter table({"threads", "algorithm", "hidden", "sec/step", "rel-time"});

  Rng data_rng(21);
  for (const auto thread_count : threads) {
    for (const auto width : widths) {
      // Random batch; contents do not affect timing.
      Matrix<float> x(width, 784);
      fill_random_uniform<float>(x.view(), data_rng, 0.0f, 1.0f);
      std::vector<int> labels(static_cast<std::size_t>(width));
      for (auto& label : labels) label = static_cast<int>(data_rng.next_below(10));

      double classical_seconds = 0;
      for (const auto& name : algos) {
        nn::BackendOptions options;
        options.matmul.num_threads = static_cast<int>(thread_count);
        options.matmul.strategy =
            thread_count > 1 ? core::Strategy::kHybrid : core::Strategy::kSequential;
        nn::MlpConfig config;
        config.layer_sizes = {784, width, width, width, width, 10};
        config.learning_rate = 0.05f;
        config.seed = 3;
        nn::Mlp mlp(config, nn::MatmulBackend(name, options),
                    nn::MatmulBackend("classical", options));

        const auto result = bench::time_workload(
            [&] { mlp.train_step(x.view().as_const(), labels); },
            {.warmup = 1, .reps = timed_steps});
        if (name == "classical") classical_seconds = result.min_seconds;
        const double rel = classical_seconds > 0
                               ? result.min_seconds / classical_seconds
                               : 1.0;
        table.add_row({std::to_string(thread_count), name, std::to_string(width),
                       format_double(result.min_seconds, 4), format_double(rel, 3)});
      }
      std::printf("finished hidden=%ld threads=%ld\n", static_cast<long>(width),
                  static_cast<long>(thread_count));
    }
  }

  std::printf("\n");
  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 6): rel-time < 1 for APA algorithms once the\n"
      "hidden width passes the crossover (paper: >= 1024 sequential), with\n"
      "<4,4,4>/<4,4,2>-shaped rules the strongest.\n");
  return 0;
}
