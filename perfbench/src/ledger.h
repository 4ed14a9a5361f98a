#pragma once
// Per-product timing ledger for the traced run.
//
// Timed<Base> decorates a backend's matmul_ex: it derives from the backend
// class it times (MatmulBackend or GuardedBackend), so the model keeps seeing
// the same dynamic type — the guarded trainer's dynamic_cast still finds its
// GuardedBackend, and dispatch_for is the base's own, so the layers pack
// exactly the plans the untraced run packs. Models receive it through their
// shared_ptr constructors.
//
// A de-risk after a training rollback replaces the model's fast backend with
// an undecorated one (nn::rebuild_backend); calls after that go unrecorded.
//
// Each call is attributed to (dense layer, product) by operand identity:
// forward and dx read the layer's weight matrix as B (dx transposed), dW
// writes the layer's gradient matrix as C. Models register their layers once;
// a call that matches no registered layer is counted as unattributed.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "core/fastmm.h"
#include "nn/backend.h"
#include "nn/mlp.h"
#include "support/timer.h"

namespace perfbench {

using apa::index_t;

inline constexpr int kMaxLayers = 5;
enum Product { kFwd = 0, kDx = 1, kDw = 2, kNumProducts = 3 };
inline constexpr std::array<const char*, kNumProducts> kProductNames = {"fwd", "dx",
                                                                         "dw"};

/// Everything the ledger knows about one (layer, product) slot.
struct ProductSlot {
  double seconds = 0;  ///< summed wall time of the calls
  std::int64_t calls = 0;
  index_t m = 0, k = 0, n = 0;
  bool transpose_a = false, transpose_b = false;
  /// Rule the last call ran; nullptr = classical gemm (including a shape the
  /// guard has quarantined).
  const apa::core::FastMatmul* rule = nullptr;
};

class Ledger {
 public:
  /// Records the operand identities of every dense layer of `model`. The
  /// weight and gradient buffers are heap-owned, so the Mlp may be moved
  /// afterwards (the data-parallel factory returns its replica by value).
  void register_model(const apa::nn::Mlp& model);
  /// Forgets every registered model (their buffers are about to be freed).
  void clear_models();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Called by Timed<Base> after each product while enabled.
  void record(const float* b, const float* c, index_t m, index_t k, index_t n,
              bool transpose_a, bool transpose_b, const apa::core::FastMatmul* rule,
              double seconds);

  [[nodiscard]] std::array<std::array<ProductSlot, kNumProducts>, kMaxLayers> slots() const;
  [[nodiscard]] std::int64_t unattributed_calls() const;

 private:
  struct LayerIds {
    const float* weights;
    const float* grad;
    int layer;
  };
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<LayerIds> layers_;
  std::array<std::array<ProductSlot, kNumProducts>, kMaxLayers> slots_{};
  std::int64_t unattributed_ = 0;
};

/// Rule `backend` runs for shape (m, k, n): its dispatch, unless a guarded
/// backend has quarantined the shape to classical gemm. nullptr = classical.
[[nodiscard]] const apa::core::FastMatmul* rule_in_use(const apa::nn::MatmulBackend& backend,
                                                       index_t m, index_t k, index_t n);

template <class Base>
class Timed final : public Base {
 public:
  template <class... Args>
  explicit Timed(Ledger* ledger, Args&&... args)
      : Base(std::forward<Args>(args)...), ledger_(ledger) {}

  void matmul_ex(apa::MatrixView<const float> a, apa::MatrixView<const float> b,
                 apa::MatrixView<float> c, bool transpose_a, bool transpose_b,
                 const apa::nn::MatmulFusion& fusion) const override {
    if (!ledger_->enabled()) {
      Base::matmul_ex(a, b, c, transpose_a, transpose_b, fusion);
      return;
    }
    const index_t k = transpose_a ? a.rows : a.cols;
    const apa::core::FastMatmul* rule = rule_in_use(*this, c.rows, k, c.cols);
    const apa::WallTimer timer;
    Base::matmul_ex(a, b, c, transpose_a, transpose_b, fusion);
    ledger_->record(b.data, c.data, c.rows, k, c.cols, transpose_a, transpose_b, rule,
                    timer.seconds());
  }

 private:
  Ledger* ledger_;
};

}  // namespace perfbench
