#include "ledger.h"

#include "nn/guarded_backend.h"

namespace perfbench {

void Ledger::register_model(const apa::nn::Mlp& model) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (index_t i = 0; i < model.num_dense_layers() && i < kMaxLayers; ++i) {
    const apa::nn::DenseLayer& layer = model.layer(i);
    layers_.push_back({layer.weights().data(), layer.weight_grad().data(),
                       static_cast<int>(i)});
  }
}

void Ledger::clear_models() {
  const std::lock_guard<std::mutex> lock(mu_);
  layers_.clear();
}

void Ledger::record(const float* b, const float* c, index_t m, index_t k, index_t n,
                    bool transpose_a, bool transpose_b,
                    const apa::core::FastMatmul* rule, double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  int layer = -1;
  Product product = kFwd;
  for (const LayerIds& ids : layers_) {
    if (transpose_a && c == ids.grad) {
      product = kDw;
    } else if (!transpose_a && b == ids.weights) {
      product = transpose_b ? kDx : kFwd;
    } else {
      continue;
    }
    layer = ids.layer;
    break;
  }
  if (layer < 0) {
    ++unattributed_;
    return;
  }
  ProductSlot& slot = slots_[static_cast<std::size_t>(layer)][product];
  slot.seconds += seconds;
  ++slot.calls;
  slot.m = m;
  slot.k = k;
  slot.n = n;
  slot.transpose_a = transpose_a;
  slot.transpose_b = transpose_b;
  slot.rule = rule;
}

std::array<std::array<ProductSlot, kNumProducts>, kMaxLayers> Ledger::slots() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_;
}

std::int64_t Ledger::unattributed_calls() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unattributed_;
}

const apa::core::FastMatmul* rule_in_use(const apa::nn::MatmulBackend& backend,
                                         index_t m, index_t k, index_t n) {
  const auto* guarded = dynamic_cast<const apa::nn::GuardedBackend*>(&backend);
  if (guarded != nullptr && guarded->is_quarantined(m, k, n)) return nullptr;
  return backend.dispatch_for(m, k, n);
}

}  // namespace perfbench
