#include "workloads.h"

#include <algorithm>
#include <filesystem>

#include "data/synthetic_mnist.h"
#include "dist/checkpoint.h"
#include "dist/trainer.h"
#include "nn/layers.h"
#include "nn/trainer.h"
#include "support/timer.h"

namespace perfbench {
namespace {

using apa::Matrix;
using apa::Rng;
using apa::WallTimer;
namespace nn = apa::nn;

const std::vector<Spec> kSpecs = {
    {.name = "paradnn",
     .layers = {784, 1536, 1536, 1536, 1536, 10},
     .algorithm = "fast444",
     .batch = 1536,
     .threads = 2,
     // Random labels: at 0.05 the loss overshoots and final_loss swings 20%
     // between seeds; at 0.01 it stays in the smooth regime near ln 10.
     .learning_rate = 0.01f,
     .schedule_units = 4},
    {.name = "mnist",
     .layers = {784, 300, 300, 10},
     .algorithm = "bini322",
     .batch = 300,
     .threads = 1,
     .guarded = true,
     .epochs = true,
     // At 0.1 (the F5 setting) plain SGD diverges for a few steps in epochs
     // 4-6 on some seeds, in both configurations. The guard then rolls back
     // and de-risks the APA backend, so the rest of the run times another
     // configuration; the data-parallel trainer replays the same batches
     // into the same divergence until its rollback budget runs out.
     .learning_rate = 0.05f,
     .train_size = 12000,
     .test_size = 2000,
     .schedule_units = 8},
    {.name = "mnist-dp",
     .layers = {784, 300, 300, 10},
     .algorithm = "bini322",
     .batch = 300,
     .threads = 1,
     .workers = 2,
     .guarded = true,
     .epochs = true,
     .learning_rate = 0.05f,
     .train_size = 12000,
     .test_size = 2000,
     .schedule_units = 8},
};

std::string dims(const Matrix<float>& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

std::uint64_t checksum(const float* data, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

nn::BackendOptions backend_options(const Spec& spec) {
  nn::BackendOptions options;
  options.matmul.num_threads = spec.threads;
  options.matmul.strategy =
      spec.threads > 1 ? apa::core::Strategy::kHybrid : apa::core::Strategy::kSequential;
  return options;
}

/// The model's two backends; Timed<> when the run is traced.
struct Backends {
  std::shared_ptr<const nn::MatmulBackend> fast;
  std::shared_ptr<const nn::MatmulBackend> classical;
  const nn::GuardedBackend* guard = nullptr;
};

Backends make_backends(const Spec& spec, bool apa, const Env& env) {
  const nn::BackendOptions options = backend_options(spec);
  const auto plain = [&](const std::string& algorithm)
      -> std::shared_ptr<const nn::MatmulBackend> {
    if (env.ledger != nullptr) {
      return std::make_shared<const Timed<nn::MatmulBackend>>(env.ledger, algorithm,
                                                              options);
    }
    return std::make_shared<const nn::MatmulBackend>(algorithm, options);
  };
  Backends b;
  b.classical = plain("classical");
  if (!apa) {
    b.fast = b.classical;
  } else if (spec.guarded) {
    std::shared_ptr<const nn::GuardedBackend> guarded;
    if (env.ledger != nullptr) {
      guarded = std::make_shared<const Timed<nn::GuardedBackend>>(
          env.ledger, spec.algorithm, options, nn::GuardPolicy{});
    } else {
      guarded = std::make_shared<const nn::GuardedBackend>(spec.algorithm, options);
    }
    b.guard = guarded.get();
    b.fast = guarded;
  } else {
    b.fast = plain(spec.algorithm);
  }
  return b;
}

nn::MlpConfig mlp_config(const Spec& spec, std::uint64_t seed) {
  nn::MlpConfig config;
  config.layer_sizes = spec.layers;
  config.learning_rate = spec.learning_rate;
  config.seed = seed;
  return config;
}

/// Mean cross-entropy of `mlp` on one batch, without touching its weights.
double batch_loss(const nn::Mlp& mlp, apa::MatrixView<const float> x,
                  const std::vector<int>& labels) {
  Matrix<float> logits(x.rows, mlp.output_size()), grad(x.rows, mlp.output_size());
  mlp.predict(x, logits.view());
  return nn::SoftmaxCrossEntropy::loss_and_grad(logits.view().as_const(), labels,
                                                grad.view());
}

/// Mean cross-entropy of `mlp` over `data`, in batches of `batch`.
double dataset_loss(const nn::Mlp& mlp, const apa::data::Dataset& data, index_t batch) {
  double sum = 0;
  for (index_t first = 0; first < data.size(); first += batch) {
    const index_t count = std::min(batch, data.size() - first);
    sum += batch_loss(mlp, data.batch_images(first, count), data.batch_labels(first, count)) *
           static_cast<double>(count);
  }
  return sum / static_cast<double>(data.size());
}

/// Synthetic MNIST splits from the workload seed.
apa::data::MnistSplits make_mnist(const Spec& spec, std::uint64_t seed) {
  apa::data::SyntheticMnistOptions gen;
  gen.train_size = spec.train_size;
  gen.test_size = spec.test_size;
  gen.seed = seed;
  return apa::data::make_synthetic_mnist(gen);
}

class TrainerBase : public Trainer {
 public:
  TrainerBase(const Spec& spec, Backends backends)
      : spec_(spec), backends_(std::move(backends)) {}
  [[nodiscard]] const nn::GuardedBackend* guard() const override {
    return backends_.guard;
  }
  [[nodiscard]] double data_gen_seconds() const override { return data_gen_seconds_; }

 protected:
  [[nodiscard]] const nn::MatmulBackend& backend_of(const nn::Mlp& mlp, int layer) const {
    return mlp.layer_uses_fast(layer) ? *backends_.fast : *backends_.classical;
  }

  const Spec& spec_;
  Backends backends_;
  double data_gen_seconds_ = 0;
};

/// paradnn: one fixed batch resident in memory, a step per unit.
class ResidentTrainer final : public TrainerBase {
 public:
  ResidentTrainer(const Spec& spec, std::uint64_t seed, Backends backends,
                  const Env& env)
      : TrainerBase(spec, std::move(backends)),
        mlp_(mlp_config(spec, seed), backends_.fast, backends_.classical) {
    if (env.ledger != nullptr) env.ledger->register_model(mlp_);
    const WallTimer timer;
    Rng rng(seed ^ 0x5eedba7cULL);
    x_ = Matrix<float>(spec.batch, spec.layers.front());
    apa::fill_random_uniform<float>(x_.view(), rng, 0.0f, 1.0f);
    labels_.resize(static_cast<std::size_t>(spec.batch));
    for (auto& label : labels_) {
      label = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(spec.layers.back())));
    }
    data_gen_seconds_ = timer.seconds();
  }

  void warmup() override { (void)mlp_.forward_backward(x_.view().as_const(), labels_); }

  UnitResult run_unit() override {
    UnitResult r;
    const WallTimer step;
    r.loss = mlp_.forward_backward(x_.view().as_const(), labels_);
    r.fwd_bwd_seconds = step.seconds();
    const WallTimer update;
    mlp_.apply_update();
    r.update_seconds = update.seconds();
    r.seconds = step.seconds();
    r.steps = 1;
    return r;
  }

  [[nodiscard]] double train_loss() override {
    return batch_loss(mlp_, x_.view().as_const(), labels_);
  }
  [[nodiscard]] const nn::MatmulBackend& backend_for(int layer) const override {
    return backend_of(mlp_, layer);
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(x_.data(), static_cast<std::size_t>(x_.size()));
  }
  [[nodiscard]] std::string input_shape() const override {
    return dims(x_) + " labels " + std::to_string(labels_.size());
  }
  [[nodiscard]] std::int64_t steps_per_unit() const override { return 1; }

 private:
  nn::Mlp mlp_;
  Matrix<float> x_;
  std::vector<int> labels_;
};

/// mnist: nn::train_epoch with the guard loop on, an epoch per unit.
class EpochTrainer final : public TrainerBase {
 public:
  EpochTrainer(const Spec& spec, std::uint64_t seed, Backends backends, bool apa,
               const Env& env)
      : TrainerBase(spec, std::move(backends)),
        mlp_(mlp_config(spec, seed), backends_.fast, backends_.classical),
        shuffle_rng_(seed + 1) {
    if (env.ledger != nullptr) env.ledger->register_model(mlp_);
    const WallTimer timer;
    auto splits = make_mnist(spec, seed);
    data_gen_seconds_ = timer.seconds();
    train_ = std::move(splits.train);
    test_ = std::move(splits.test);
    guard_.enabled = true;
    guard_.checkpoint_path =
        (std::filesystem::path(env.scratch_dir) / (apa ? "apa.ckpt" : "classical.ckpt"))
            .string();
  }

  void warmup() override {
    (void)mlp_.forward_backward(train_.batch_images(0, spec_.batch),
                                train_.batch_labels(0, spec_.batch));
  }

  UnitResult run_unit() override {
    UnitResult r;
    const WallTimer timer;
    nn::TrainGuardReport report;
    const nn::EpochStats stats =
        nn::train_epoch(mlp_, train_, spec_.batch, &shuffle_rng_, guard_, &report);
    r.seconds = timer.seconds();
    r.loss = stats.mean_loss;
    r.steps = stats.steps;
    r.rollbacks = report.recoveries;
    return r;
  }

  [[nodiscard]] double train_loss() override {
    return dataset_loss(mlp_, train_, spec_.batch);
  }
  [[nodiscard]] double test_accuracy() override {
    return nn::evaluate_accuracy(mlp_, test_);
  }
  [[nodiscard]] const nn::MatmulBackend& backend_for(int layer) const override {
    return backend_of(mlp_, layer);
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(test_.images.data(), static_cast<std::size_t>(test_.images.size()));
  }
  [[nodiscard]] std::string input_shape() const override {
    return "train " + dims(train_.images) + " test " + dims(test_.images);
  }
  [[nodiscard]] std::int64_t steps_per_unit() const override {
    return train_.size() / spec_.batch;
  }

 private:
  nn::Mlp mlp_;
  apa::data::Dataset train_, test_;
  Rng shuffle_rng_;
  nn::TrainGuardOptions guard_;
};

/// mnist-dp: dist::train_data_parallel, an epoch per unit. Replicas live only
/// inside an epoch; the model carries over through the final sharded
/// checkpoint, exactly as the data-parallel example resumes.
class DistTrainer final : public TrainerBase {
 public:
  DistTrainer(const Spec& spec, std::uint64_t seed, Backends backends, bool apa,
              const Env& env)
      : TrainerBase(spec, std::move(backends)),
        config_(mlp_config(spec, seed)),
        seed_(seed),
        ledger_(env.ledger) {
    const WallTimer timer;
    auto splits = make_mnist(spec, seed);
    data_gen_seconds_ = timer.seconds();
    train_ = std::move(splits.train);
    test_ = std::move(splits.test);
    options_.workers = spec.workers;
    options_.batch = spec.batch / spec.workers;
    options_.checkpoint_every = 50;
    options_.checkpoint_dir =
        (std::filesystem::path(env.scratch_dir) / (apa ? "dist_apa" : "dist_classical"))
            .string();
    std::filesystem::remove_all(options_.checkpoint_dir);
    std::filesystem::create_directories(options_.checkpoint_dir);
    layout_ = std::make_unique<nn::Mlp>(make_model());
  }

  void warmup() override {
    (void)layout_->forward_backward(train_.batch_images(0, options_.batch),
                                    train_.batch_labels(0, options_.batch));
  }

  UnitResult run_unit() override {
    UnitResult r;
    options_.seed = seed_ + static_cast<std::uint64_t>(epoch_);
    if (ledger_ != nullptr) ledger_->clear_models();
    const WallTimer timer;
    const apa::dist::DistEpochStats stats = apa::dist::train_data_parallel(
        [this] { return make_model(); }, train_, options_);
    r.seconds = timer.seconds();
    resume_step_ = stats.final_checkpoint_step;
    ++epoch_;
    r.loss = stats.mean_loss;
    r.steps = stats.steps;
    r.replicas_bit_identical = stats.replicas_bit_identical && stats.rollbacks_bit_exact;
    r.rollbacks = stats.rollbacks;
    r.prefetch_hits = stats.prefetch_hits;
    r.prefetch_misses = stats.prefetch_misses;
    r.resend_requests = stats.resend_requests;
    return r;
  }

  [[nodiscard]] double train_loss() override {
    const nn::Mlp trained = make_model();
    return dataset_loss(trained, train_, spec_.batch);
  }
  [[nodiscard]] double test_accuracy() override {
    const nn::Mlp trained = make_model();
    return nn::evaluate_accuracy(trained, test_);
  }
  [[nodiscard]] const nn::MatmulBackend& backend_for(int layer) const override {
    return backend_of(*layout_, layer);
  }
  [[nodiscard]] std::uint64_t input_checksum() const override {
    return checksum(test_.images.data(), static_cast<std::size_t>(test_.images.size()));
  }
  [[nodiscard]] std::string input_shape() const override {
    return "train " + dims(train_.images) + " test " + dims(test_.images);
  }
  [[nodiscard]] std::int64_t steps_per_unit() const override {
    return train_.size() / spec_.batch;
  }

 private:
  /// Bit-identical replica, resumed from the last epoch's final checkpoint.
  nn::Mlp make_model() {
    nn::Mlp model(config_, backends_.fast, backends_.classical);
    if (resume_step_ >= 0) {
      apa::dist::load_sharded_checkpoint(options_.checkpoint_dir, resume_step_, model);
    }
    if (ledger_ != nullptr) ledger_->register_model(model);
    return model;
  }

  nn::MlpConfig config_;
  std::uint64_t seed_;
  Ledger* ledger_;
  apa::data::Dataset train_, test_;
  apa::dist::DistTrainOptions options_;
  std::unique_ptr<nn::Mlp> layout_;  ///< untrained replica: warmup and dispatch queries
  apa::index_t resume_step_ = -1;
  int epoch_ = 0;
};

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<ProductShape> step_products(const Spec& spec) {
  const index_t batch = spec.batch / spec.workers;
  std::vector<ProductShape> out;
  for (std::size_t i = 0; i + 1 < spec.layers.size(); ++i) {
    const int layer = static_cast<int>(i);
    const index_t in = spec.layers[i];
    const index_t out_f = spec.layers[i + 1];
    out.push_back({layer, kFwd, batch, in, out_f, false, false});
    out.push_back({layer, kDw, in, batch, out_f, true, false});
    if (layer > 0) out.push_back({layer, kDx, batch, out_f, in, false, true});
  }
  return out;
}

std::unique_ptr<Trainer> make_trainer(const Spec& spec, std::uint64_t seed, bool apa,
                                      const Env& env) {
  Backends backends = make_backends(spec, apa, env);
  if (spec.workers > 1) {
    return std::make_unique<DistTrainer>(spec, seed, std::move(backends), apa, env);
  }
  if (spec.epochs) {
    return std::make_unique<EpochTrainer>(spec, seed, std::move(backends), apa, env);
  }
  return std::make_unique<ResidentTrainer>(spec, seed, std::move(backends), env);
}

}  // namespace perfbench
