#pragma once
// The training workloads of the benchmark. Each configuration (the APA
// model or its all-classical twin) is a Trainer that runs one timed unit at a
// time: a step on the resident-batch workloads, an epoch where the library's
// trainer owns the loop.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "nn/guarded_backend.h"

namespace perfbench {

struct Spec {
  std::string name;
  std::vector<index_t> layers;
  std::string algorithm;  ///< APA rule of the hidden layers (input and output are classical)
  index_t batch = 0;  ///< global samples per step
  int threads = 1;    ///< OpenMP threads per model (per worker when data parallel)
  int workers = 1;    ///< > 1: dist::train_data_parallel
  bool guarded = false;
  bool epochs = false;  ///< timed unit is an epoch (the library trainer's loop)
  float learning_rate = 0.1f;
  index_t train_size = 0, test_size = 0;  ///< epoch workloads only
  int schedule_units = 0;  ///< fixed schedule whose end fixes final_loss
};

[[nodiscard]] const Spec* find_spec(const std::string& name);

/// Logical product of one dense layer: op(A) is m x k, op(B) is k x n.
struct ProductShape {
  int layer = 0;
  Product product = kFwd;
  index_t m = 0, k = 0, n = 0;
  bool transpose_a = false, transpose_b = false;
};
/// Every product a training step of `spec` runs, per worker.
[[nodiscard]] std::vector<ProductShape> step_products(const Spec& spec);

struct UnitResult {
  double loss = 0;
  double seconds = 0;  ///< wall time of the whole unit
  std::int64_t steps = 0;
  // Resident-batch units time the two halves of the step separately.
  double fwd_bwd_seconds = 0;
  double update_seconds = 0;
  int rollbacks = 0;  ///< guard rollbacks (epoch workloads)
  // Data-parallel epochs.
  bool replicas_bit_identical = true;
  std::int64_t prefetch_hits = 0, prefetch_misses = 0, resend_requests = 0;
};

/// Where a run may write (checkpoints) and how its backends are decorated.
struct Env {
  std::string scratch_dir;
  Ledger* ledger = nullptr;  ///< non-null: backends are Timed<> (traced run)
};

class Trainer {
 public:
  virtual ~Trainer() = default;
  /// Forward + backward without an update (weights unchanged): touches every
  /// pack, plan and buffer a step needs.
  virtual void warmup() = 0;
  virtual UnitResult run_unit() = 0;
  /// Mean loss of the current weights over the training data; changes no
  /// weight. An epoch's running mean also carries the loss of every weight
  /// state on the way, so it differs more between the two configurations.
  [[nodiscard]] virtual double train_loss() = 0;
  [[nodiscard]] virtual double test_accuracy() { return -1.0; }
  /// Backend of `layer` in the model (the guarded one where guarded).
  [[nodiscard]] virtual const apa::nn::MatmulBackend& backend_for(int layer) const = 0;
  /// Guard activity so far; nullptr for unguarded configurations.
  [[nodiscard]] virtual const apa::nn::GuardedBackend* guard() const { return nullptr; }
  /// Fingerprint and dimensions of the generated inputs (determinism check).
  [[nodiscard]] virtual std::uint64_t input_checksum() const = 0;
  [[nodiscard]] virtual std::string input_shape() const = 0;
  [[nodiscard]] virtual double data_gen_seconds() const = 0;
  /// Training steps per unit (global steps when data parallel).
  [[nodiscard]] virtual std::int64_t steps_per_unit() const = 0;
};

/// Builds one configuration. `apa` false builds the all-classical twin.
[[nodiscard]] std::unique_ptr<Trainer> make_trainer(const Spec& spec, std::uint64_t seed,
                                                    bool apa, const Env& env);

}  // namespace perfbench
