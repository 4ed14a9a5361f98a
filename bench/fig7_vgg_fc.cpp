// Reproduces Fig 7: per-batch training time of the VGG-19 fully connected
// layers (25088-4096-4096-1000) across batch sizes, comparing the <4,4,2>
// algorithm (our fast442 construction) against classical — the paper's
// section 5 experiment.
//
// Usage: fig7_vgg_fc [--batches=16,32,64,128] [--algos=classical,fast442]
//                    [--threads=1] [--reps=2] [--csv=out.csv] [--full]

#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/isa.h"
#include "nn/vgg.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const auto batches = args.get_int_list(
      "batches", args.get_bool("full")
                     ? std::vector<std::int64_t>{64, 128, 256, 512, 1024}
                     : std::vector<std::int64_t>{64, 128, 256, 512});
  const auto algos = bench::resolve_algorithms(
      args.get_list("algos", {"classical", "fast442"}));
  const int thread_count = static_cast<int>(args.get_int("threads", 1));
  const int reps = static_cast<int>(args.get_int("reps", 2));

  std::printf("Fig 7: VGG-19 FC head (25088-4096-4096-1000), time per batch\n\n");
  TablePrinter table({"algorithm", "batch", "sec/batch", "rel-time"});

  // Build one head per algorithm (weights are large; construct lazily inside
  // the loop and release before the next algorithm).
  std::vector<std::vector<double>> seconds(algos.size());
  for (std::size_t ai = 0; ai < algos.size(); ++ai) {
    nn::BackendOptions options;
    options.matmul.num_threads = thread_count;
    options.matmul.strategy = thread_count > 1 ? core::Strategy::kHybrid
                                               : core::Strategy::kSequential;
    nn::VggFcConfig config;
    auto head = nn::make_vgg_fc_head(config, nn::MatmulBackend(algos[ai], options),
                                     nn::MatmulBackend("classical", options));
    for (const auto batch : batches) {
      seconds[ai].push_back(nn::time_vgg_fc_step(head, batch, reps));
      std::printf("finished %s batch=%ld\n", algos[ai].c_str(),
                  static_cast<long>(batch));
    }
  }

  for (std::size_t ai = 0; ai < algos.size(); ++ai) {
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      const double rel = seconds[0][bi] > 0 ? seconds[ai][bi] / seconds[0][bi] : 1.0;
      table.add_row({algos[ai], std::to_string(batches[bi]),
                     format_double(seconds[ai][bi], 3), format_double(rel, 3)});
    }
  }

  std::printf("\n");
  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 7): <4,4,2> beats classical per batch, growing\n"
      "with batch size toward the paper's 15%% sequential improvement.\n");
  return 0;
}
