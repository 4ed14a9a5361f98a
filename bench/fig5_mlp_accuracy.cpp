// Reproduces Fig 5 (a/b): MLP train/test accuracy per epoch on (synthetic)
// MNIST with APA algorithms driving the middle 300x300x300 multiplications in
// forward and backward propagation, classical on the input/output layers —
// the paper's exact configuration (784-300-300-10, batch 300, SGD).
//
// Defaults are scaled for a single-core host (12k train samples, 8 epochs);
// --full restores the paper's 60k/10k and 50 epochs. Real MNIST IDX files are
// used when --mnist-dir points at them.
//
// Usage: fig5_mlp_accuracy [--algos=...] [--epochs=8] [--train=12000]
//                          [--test=2000] [--mnist-dir=PATH] [--full] [--csv=out.csv]

#include <cstdio>

#include "benchutil/algos.h"
#include "benchutil/isa.h"
#include "data/idx.h"
#include "data/synthetic_mnist.h"
#include "nn/trainer.h"
#include "support/cli.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  bench::select_isa(args);
  const bool full = args.get_bool("full");
  const auto epochs = args.get_int("epochs", full ? 50 : 8);
  const auto train_size = args.get_int("train", full ? 60000 : 12000);
  const auto test_size = args.get_int("test", full ? 10000 : 2000);
  const auto algos = bench::resolve_algorithms(args.get_list(
      "algos", {"classical", "bini322", "apa333", "fast444", "apa664"}));

  data::Dataset train, test;
  if (auto mnist = data::try_load_mnist(args.get("mnist-dir", "data/mnist"))) {
    std::printf("using real MNIST from disk\n");
    train = std::move(mnist->train);
    test = std::move(mnist->test);
  } else {
    std::printf("real MNIST not found; using the synthetic generator (DESIGN.md)\n");
    data::SyntheticMnistOptions gen;
    gen.train_size = train_size;
    gen.test_size = test_size;
    auto splits = data::make_synthetic_mnist(gen);
    train = std::move(splits.train);
    test = std::move(splits.test);
  }

  std::printf("Fig 5: 784-300-300-10 MLP, batch 300, APA on the middle layer\n\n");
  TablePrinter table({"algorithm", "epoch", "loss", "train-acc", "test-acc"});

  for (const auto& name : algos) {
    nn::MlpConfig config;
    config.layer_sizes = {784, 300, 300, 10};
    config.learning_rate = 0.1f;
    config.seed = 7;  // identical init across algorithms
    nn::Mlp mlp(config, nn::MatmulBackend(name), nn::MatmulBackend("classical"));
    Rng shuffle_rng(13);  // identical batch order across algorithms
    for (int epoch = 1; epoch <= epochs; ++epoch) {
      const auto stats = nn::train_epoch(mlp, train, 300, &shuffle_rng);
      const double train_acc = nn::evaluate_accuracy(mlp, train);
      const double test_acc = nn::evaluate_accuracy(mlp, test);
      table.add_row({name, std::to_string(epoch), format_double(stats.mean_loss, 4),
                     format_double(train_acc, 4), format_double(test_acc, 4)});
    }
    std::printf("finished %s\n", name.c_str());
  }

  std::printf("\n");
  table.print();
  table.write_csv(args.get("csv", ""));
  std::printf(
      "\nExpected shape (paper Fig 5): every APA algorithm converges like the\n"
      "classical baseline; final test accuracies cluster within a couple of\n"
      "points despite matmul errors up to ~1e-1.\n");
  return 0;
}
