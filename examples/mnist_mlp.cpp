// Train the paper's 784-300-300-10 MLP on (synthetic) MNIST with an APA
// algorithm accelerating the middle layer — the paper's section 4 setup as a
// runnable example.
//
//   ./mnist_mlp [--algo=bini322] [--epochs=5] [--train=8000] [--test=2000]
//               [--batch=300] [--lr=0.1] [--mnist-dir=PATH] [--guard]
//               [--tune] [--tune-cache=PATH]
//               [--trace-out=trace.json] [--metrics-out=metrics.jsonl] [--trace-cap=N]
//               [--flight-dir=DIR] [--metrics-snapshot=PATH:SECONDS]
//               [--workers=N] [--shard-dir=PATH] [--inject-fault=SPEC]
//
// --tune routes the fast layer through the self-tuning backend router
// (docs/TUNING.md): per-shape explore/exploit over {backend, lambda, steps,
// strategy, plan variant} with guarded APA candidates. --tune-cache=PATH
// additionally persists the learned choice table (implies --tune); a second
// run against the same file warm-starts, skipping both the calibration probes
// and the explore phase — verify with the tune.* counters in --metrics-out.
//
// --trace-out records every instrumented phase (pack/combine/gemm/epilogue/
// verify/...) to a Chrome-trace JSON viewable in Perfetto; --metrics-out
// streams one JSONL record per epoch (plus per-step records when --guard is
// on) and a final counters snapshot; --trace-cap bounds ring retention to N
// spans per thread for long runs (default 64Ki, oldest dropped on overflow).
// --flight-dir arms the flight recorder: on a guard trip, rollback, rewind,
// ApaError, or fatal signal the per-worker black-box rings dump to
// flight_<rank>.json in DIR. --metrics-snapshot periodically publishes the
// counters in Prometheus text format (atomic rename). With --workers=N > 1
// the trace/metrics paths are suffixed per rank (trace.rank0.json, ...) and
// tools/obs/trace_merge fuses the per-rank traces into one clock-aligned
// timeline. See docs/OBSERVABILITY.md.
//
// --workers=N (N > 1) switches to fault-tolerant data-parallel training:
// N replica workers over disjoint dataset shards with a shared-memory
// all-reduce, sharded checkpoints under --shard-dir (default dist_ckpt), and
// the distributed rollback protocol from docs/ROBUSTNESS.md. --inject-fault
// takes the deterministic drill grammar ("kill@R:S,corrupt@R:S,
// corrupt-shard@R:S,delay@R:S:MS"), applied to the first epoch only so later
// epochs demonstrate fault-free recovery from the degraded state.

#include <cstdio>
#include <memory>

#include "data/idx.h"
#include "data/synthetic_mnist.h"
#include "dist/checkpoint.h"
#include "dist/trainer.h"
#include "nn/guarded_backend.h"
#include "nn/trainer.h"
#include "obs/session.h"
#include "support/cli.h"
#include "tune/calibrate.h"
#include "tune/router.h"

namespace {

void print_router_summary(const apa::tune::TunedBackend* router) {
  if (router == nullptr) return;
  const apa::tune::RouterStats s = router->stats();
  std::printf(
      "\nrouter: cache %s (%llu warm entries), %llu decisions, "
      "%llu explore samples, %llu routed calls, %llu static calls, "
      "%llu quarantine overrides, %llu saves\n",
      apa::tune::to_string(s.cache_status),
      static_cast<unsigned long long>(s.warm_entries),
      static_cast<unsigned long long>(s.decisions),
      static_cast<unsigned long long>(s.explore_samples),
      static_cast<unsigned long long>(s.decided_calls),
      static_cast<unsigned long long>(s.static_calls),
      static_cast<unsigned long long>(s.quarantine_overrides),
      static_cast<unsigned long long>(s.cache_saves));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const int workers = static_cast<int>(args.get_int("workers", 1));
  obs::ObsSessionOptions obs_options;
  obs_options.trace_path = args.get("trace-out", "");
  obs_options.metrics_path = args.get("metrics-out", "");
  obs_options.trace_cap_events =
      static_cast<std::uint64_t>(args.get_int("trace-cap", 0));
  obs_options.flight_dir = args.get("flight-dir", "");
  obs_options.snapshot_spec = args.get("metrics-snapshot", "");
  // Per-rank file suffixing: N workers must never interleave on one trace or
  // metrics file (docs/OBSERVABILITY.md §Distributed mode).
  obs_options.ranks = workers;
  obs::ObsSession obs_session(obs_options);
  const std::string algo = args.get("algo", "bini322");
  const int epochs = static_cast<int>(args.get_int("epochs", 5));
  const index_t batch = args.get_int("batch", 300);
  const bool guard = args.get_bool("guard", false);

  data::Dataset train, test;
  if (auto mnist = data::try_load_mnist(args.get("mnist-dir", "data/mnist"))) {
    std::printf("loaded real MNIST\n");
    train = std::move(mnist->train);
    test = std::move(mnist->test);
  } else {
    data::SyntheticMnistOptions gen;
    gen.train_size = args.get_int("train", 8000);
    gen.test_size = args.get_int("test", 2000);
    auto splits = data::make_synthetic_mnist(gen);
    train = std::move(splits.train);
    test = std::move(splits.test);
    std::printf("generated synthetic MNIST: %ld train / %ld test samples\n",
                static_cast<long>(train.size()), static_cast<long>(test.size()));
  }

  nn::MlpConfig config;
  config.layer_sizes = {784, 300, 300, 10};
  config.learning_rate = static_cast<float>(args.get_double("lr", 0.1));
  // The guarded and tuned wrappers must go through the shared_ptr overload —
  // the value constructor would slice their routing/verification policy away.
  const std::string tune_cache = args.get("tune-cache", "");
  const bool tune_enabled = args.get_bool("tune", false) || !tune_cache.empty();
  std::shared_ptr<const nn::MatmulBackend> fast;
  const tune::TunedBackend* router = nullptr;
  if (tune_enabled) {
    tune::RouterOptions tuning;
    if (algo != "classical") tuning.algorithms = {algo};
    tuning.static_algorithm = algo;
    tuning.cache_path = tune_cache;
    tuning.telemetry = obs_session.telemetry();
    // Training traffic is scarce relative to a bench sweep (a handful of calls
    // per shape per epoch), so take one timed sample per burst: decisions
    // commit within the first couple of epochs instead of never.
    tuning.measure_reps = 1;
    // Calibrate the dispatch cost model only when the cache cannot warm-start
    // this process; a warm fleet member pays neither probes nor exploration.
    if (tune_cache.empty() || tune::load_tuning_cache(tune_cache).status !=
                                  tune::CacheStatus::kLoaded) {
      tune::calibrate().apply(tuning.backend);
    }
    auto tuned = std::make_shared<const tune::TunedBackend>(tuning);
    router = tuned.get();
    fast = tuned;
  } else if (guard) {
    fast = std::make_shared<const nn::GuardedBackend>(algo);
  } else {
    fast = std::make_shared<const nn::MatmulBackend>(algo);
  }
  nn::Mlp mlp(config, fast, std::make_shared<const nn::MatmulBackend>("classical"));

  if (workers > 1) {
    dist::DistTrainOptions dist_options;
    dist_options.workers = workers;
    dist_options.batch = batch;
    dist_options.checkpoint_dir = args.get("shard-dir", "dist_ckpt");
    dist_options.telemetry = obs_session.telemetry();
    dist_options.rank_telemetry = [&obs_session](int rank) {
      return obs_session.rank_telemetry(rank);
    };
    const dist::DistFaultPolicy faults =
        dist::DistFaultPolicy::parse(args.get("inject-fault", ""));

    // The factory hands every worker a bit-identical replica: same config and
    // seed, resumed from the previous epoch's final checkpoint when one exists.
    index_t resume_step = -1;
    const auto factory = [&] {
      nn::Mlp model(config, fast,
                    std::make_shared<const nn::MatmulBackend>("classical"));
      if (resume_step >= 0) {
        dist::load_sharded_checkpoint(dist_options.checkpoint_dir, resume_step,
                                      model);
      }
      return model;
    };

    std::printf(
        "MLP 784-300-300-10, %d data-parallel workers, batch %ld/worker, "
        "middle layer on '%s', checkpoints in %s\n\n",
        workers, static_cast<long>(batch), algo.c_str(),
        dist_options.checkpoint_dir.c_str());
    for (int epoch = 1; epoch <= epochs; ++epoch) {
      dist_options.seed = 1234 + static_cast<std::uint64_t>(epoch);
      dist_options.faults = epoch == 1 ? faults : dist::DistFaultPolicy{};
      const dist::DistEpochStats stats =
          dist::train_data_parallel(factory, train, dist_options);
      resume_step = stats.final_checkpoint_step;
      const nn::Mlp trained = factory();  // loads the final checkpoint
      std::printf(
          "epoch %2d  loss %.4f  test-acc %.4f  workers %d->%d  rollbacks %d "
          "(bit-exact %s)  (%.2fs)\n",
          epoch, stats.mean_loss, nn::evaluate_accuracy(trained, test),
          stats.initial_workers, stats.final_workers, stats.rollbacks,
          stats.rollbacks_bit_exact ? "yes" : "NO", stats.seconds);
      if (stats.faults_killed + stats.faults_grad_corrupted +
              stats.faults_shard_corrupted >
          0) {
        std::printf(
            "          injected: %d kills, %d corrupt grads, %d corrupt "
            "shards\n",
            stats.faults_killed, stats.faults_grad_corrupted,
            stats.faults_shard_corrupted);
      }
    }
    print_router_summary(router);
    return 0;
  }

  std::printf("MLP 784-300-300-10, batch %ld, middle layer on '%s'%s\n\n",
              static_cast<long>(batch), algo.c_str(), guard ? " (guarded)" : "");
  Rng rng(3);
  nn::TrainGuardOptions guard_options;
  guard_options.enabled = guard;
  guard_options.telemetry = obs_session.telemetry();
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    nn::TrainGuardReport report;
    const auto stats = nn::train_epoch(mlp, train, batch, &rng, guard_options, &report);
    const double test_acc = nn::evaluate_accuracy(mlp, test);
    std::printf("epoch %2d  loss %.4f  train-acc %.4f  test-acc %.4f  (%.2fs)\n", epoch,
                stats.mean_loss, nn::evaluate_accuracy(mlp, train), test_acc,
                stats.seconds);
    if (obs_session.telemetry() != nullptr) {
      nn::append_epoch_record(*obs_session.telemetry(), epoch, stats, test_acc,
                              guard ? &report : nullptr);
    }
  }
  print_router_summary(router);
  return 0;
}
