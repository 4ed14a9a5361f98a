// Self-check of the per-product ledger (run by `python3 perfbench/run.py
// --selftest`, which then checks determinism of every workload).
//
// On a small MLP whose hidden layer dispatches to an APA rule, plain and
// guarded, a traced model and an undecorated twin train side by side. It
// checks that:
//   * every product of every layer is attributed, once per step;
//   * each traced product ran the rule the twin's own backend runs for that
//     shape, so tracing adds no pack or plan the untraced run would not do;
//   * the products nest inside forward_backward, and the ledger's step
//     (forward_backward + update) reconciles with the twin's step wall time;
//   * tracing does not change the arithmetic: losses are bit-identical to the
//     twin's;
//   * a decorated GuardedBackend is still a GuardedBackend to the trainer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool same_rule(const apa::core::FastMatmul* a, const apa::core::FastMatmul* b) {
  if (a == nullptr || b == nullptr) return a == b;
  const apa::core::Rule& x = a->rule();
  const apa::core::Rule& y = b->rule();
  return x.name == y.name && x.m == y.m && x.k == y.k && x.n == y.n;
}

void check_spec(const perfbench::Spec& spec) {
  constexpr int kSteps = 21;
  // Gross errors only (a missing or double-counted term): millisecond steps
  // on a shared host jitter by more than tracing costs.
  constexpr double kReconcileTolerance = 0.3;
  perfbench::Ledger ledger;
  const perfbench::Env traced_env{.scratch_dir = ".", .ledger = &ledger};
  const perfbench::Env plain_env{.scratch_dir = ".", .ledger = nullptr};
  auto traced = perfbench::make_trainer(spec, 5, true, traced_env);
  auto plain = perfbench::make_trainer(spec, 5, true, plain_env);
  const std::string tag = spec.name + ": ";

  double fwd_bwd_s = 0;
  std::vector<double> ledger_step_s, plain_step_s;
  bool identical = true;
  ledger.set_enabled(true);
  for (int step = 0; step < kSteps; ++step) {
    const perfbench::UnitResult t = traced->run_unit();
    const perfbench::UnitResult p = plain->run_unit();
    identical = identical && t.loss == p.loss;
    fwd_bwd_s += t.fwd_bwd_seconds;
    ledger_step_s.push_back(t.fwd_bwd_seconds + t.update_seconds);
    plain_step_s.push_back(p.seconds);
  }
  ledger.set_enabled(false);
  expect(identical, tag + "traced losses are bit-identical to the undecorated model's");
  expect(ledger.unattributed_calls() == 0, tag + "every product call is attributed");

  const auto slots = ledger.slots();
  double products_s = 0;
  bool counts_ok = true, dispatch_ok = true;
  for (const perfbench::ProductShape& s : perfbench::step_products(spec)) {
    const perfbench::ProductSlot& slot =
        slots[static_cast<std::size_t>(s.layer)][static_cast<std::size_t>(s.product)];
    counts_ok = counts_ok && slot.calls == kSteps && slot.m == s.m && slot.k == s.k &&
                slot.n == s.n && slot.transpose_a == s.transpose_a &&
                slot.transpose_b == s.transpose_b;
    dispatch_ok = dispatch_ok &&
                  same_rule(slot.rule, perfbench::rule_in_use(plain->backend_for(s.layer),
                                                              s.m, s.k, s.n));
    products_s += slot.seconds;
  }
  expect(counts_ok, tag + "each (layer, product) slot holds one call per step of its shape");
  expect(dispatch_ok, tag + "each traced product ran the undecorated twin's rule");
  expect(slots[1][perfbench::kFwd].rule != nullptr,
         tag + "the hidden layer dispatches to the APA rule");
  expect(products_s <= fwd_bwd_s, tag + "products nest inside forward_backward");
  const double ledger_step = median(ledger_step_s), plain_step = median(plain_step_s);
  std::printf("     median step: ledger %.3f ms, undecorated twin %.3f ms\n", ledger_step * 1e3,
              plain_step * 1e3);
  expect(std::abs(ledger_step - plain_step) <= kReconcileTolerance * plain_step,
         tag + "forward_backward + update reconciles with the twin's step wall time");
  if (spec.guarded) {
    expect(dynamic_cast<const apa::nn::GuardedBackend*>(&traced->backend_for(1)) != nullptr,
           tag + "the decorated guarded backend is still a GuardedBackend");
    expect(traced->guard() != nullptr && traced->guard()->stats().checks_run > 0,
           tag + "the guard verified the traced products");
  }
}

}  // namespace

int main() {
  // Hidden width 256 and batch 256 clear the backend's min_dim_for_fast.
  const perfbench::Spec plain{.name = "selftest-fast444",
                              .layers = {128, 256, 256, 10},
                              .algorithm = "fast444",
                              .batch = 256,
                              .threads = 2,
                              .learning_rate = 0.05f,
                              .schedule_units = 1};
  perfbench::Spec guarded = plain;
  guarded.name = "selftest-guarded-bini322";
  guarded.algorithm = "bini322";
  guarded.threads = 1;
  guarded.guarded = true;
  check_spec(plain);
  check_spec(guarded);
  std::printf("ledger self-check %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
