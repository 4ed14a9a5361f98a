// End-to-end training benchmark: one workload per invocation.
//
//   perfbench_train --workload=paradnn|mnist|mnist-dp --seed=N
//                   --seconds=S --trace=0|1 [--scratch=DIR] [--schedule-only]
//
// --trace=0 (end-to-end run): sets the workload up several times (setup_s is
// the median), then the APA model and its all-classical twin take turns, one
// timed unit each, until S seconds have passed and the fixed schedule is
// done. Tracing is off. The last stdout line is the result JSON.
//
// --trace=1 (traced run): only the APA model, on Timed<> backends; traced and
// untraced units alternate, and the per-layer metrics come from the traced
// ones (ledger, obs phase totals, guard and data-parallel stats). The ledger
// must reconcile with the untraced units' wall time.
//
// --schedule-only runs just the fixed schedule of both configurations and
// prints the bits of both final losses, for the determinism check, and
// whether both trained without failure.
//
// Every run ends with the correctness oracle (see check_products). A unit
// that throws stops its configuration; the other one runs on, and the run
// reports correct=false with every attempted step failed.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.h"
#include "core/guard.h"
#include "core/params.h"
#include "ledger.h"
#include "obs/trace.h"
#include "support/cli.h"
#include "support/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using apa::Matrix;
using apa::WallTimer;
namespace nn = apa::nn;

/// APA final_loss may differ from the classical twin's by this many nats plus
/// this share of the twin's loss, at the end of the fixed schedule. The two
/// trajectories drift apart: over 40 mnist seeds at lr 0.1 the gap reached
/// 0.025 nats (0.050 vs 0.075), while broken arithmetic moves the loss by
/// tenths.
constexpr double kLossToleranceNats = 0.1;
constexpr double kLossToleranceShare = 0.05;
/// Test accuracy (mnist workloads) may differ from the twin's by this much.
constexpr double kAccuracyTolerance = 0.02;
/// setup_s is the median over this many complete set-ups.
constexpr int kSetupReps = 5;
/// The traced run's ledger may differ from the untraced wall time by this
/// share (tracing costs about 2%; a missing or double-counted term costs more).
constexpr double kReconcileTolerance = 0.1;
/// The oracle accepts a product whose relative Frobenius error against the
/// double-precision reference is within this multiple of the model bound
/// (the same multiplier ProductGuard applies to its Freivalds residual).
constexpr double kOracleMultiplier = apa::core::GuardOptions{}.tolerance_multiplier;

// ---------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// First and third quartile, as Python's statistics.quantiles(v, n=4) gives
/// them (exclusive method, extrapolating for tiny samples).
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {median(v), median(v)};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const auto at = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * (n + 1) / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  return {at(1), at(3)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -------------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
}

// -------------------------------------------------------------------- oracle

/// Relative Frobenius error of op(A)*op(B) in float vs a double reference.
/// The reference is accumulated over k in chunks so no full double copy of a
/// large operand is ever held.
double reference_error(const Matrix<float>& a, const Matrix<float>& b,
                       const Matrix<float>& c, const ProductShape& s, int threads) {
  constexpr index_t kChunk = 1024;
  Matrix<double> ref(s.m, s.n);
  for (index_t p0 = 0; p0 < s.k; p0 += kChunk) {
    const index_t kc = std::min(kChunk, s.k - p0);
    Matrix<double> ad(s.m, kc), bd(kc, s.n);
    for (index_t i = 0; i < s.m; ++i) {
      for (index_t j = 0; j < kc; ++j) {
        ad(i, j) = s.transpose_a ? a(p0 + j, i) : a(i, p0 + j);
      }
    }
    for (index_t i = 0; i < kc; ++i) {
      for (index_t j = 0; j < s.n; ++j) {
        bd(i, j) = s.transpose_b ? b(j, p0 + i) : b(p0 + i, j);
      }
    }
    apa::blas::gemm<double>(ad.view().as_const(), bd.view().as_const(), ref.view(), 1.0,
                            p0 == 0 ? 0.0 : 1.0, threads);
  }
  return apa::relative_frobenius_error(c.view().as_const(), ref.view().as_const());
}

/// Checks one product of every distinct APA-dispatched shape of the APA model
/// against the double-precision gemm. Guarded backends are bypassed
/// (qualified call), so the rule itself is certified, not its fallback.
bool check_products(const Spec& spec, const Trainer& apa_model, std::uint64_t seed) {
  bool ok = true;
  std::set<std::tuple<index_t, index_t, index_t, bool, bool>> seen;
  apa::Rng rng(seed ^ 0x0a4ac1eULL);
  for (const ProductShape& s : step_products(spec)) {
    const nn::MatmulBackend& backend = apa_model.backend_for(s.layer);
    const apa::core::FastMatmul* rule = backend.dispatch_for(s.m, s.k, s.n);
    if (rule == nullptr) continue;
    if (!seen.insert({s.m, s.k, s.n, s.transpose_a, s.transpose_b}).second) continue;
    Matrix<float> a(s.transpose_a ? s.k : s.m, s.transpose_a ? s.m : s.k);
    Matrix<float> b(s.transpose_b ? s.n : s.k, s.transpose_b ? s.k : s.n);
    Matrix<float> c(s.m, s.n);
    apa::fill_random_uniform<float>(a.view(), rng);
    apa::fill_random_uniform<float>(b.view(), rng);
    backend.nn::MatmulBackend::matmul_ex(a.view().as_const(), b.view().as_const(),
                                         c.view(), s.transpose_a, s.transpose_b, {});
    const double error = reference_error(a, b, c, s, spec.threads);
    const double bound = apa::core::ProductGuard::model_error_bound(
        rule->params(), apa::core::kPrecisionBitsSingle, rule->options().steps);
    const bool pass = error <= kOracleMultiplier * bound;
    ok = ok && pass;
    std::printf("oracle: fc%d.%s %ldx%ldx%ld %s rel_error %.3e bound %.3e x%.0f %s\n",
                s.layer, kProductNames[s.product], static_cast<long>(s.m),
                static_cast<long>(s.k), static_cast<long>(s.n),
                rule->algorithm().c_str(), error, bound, kOracleMultiplier,
                pass ? "ok" : "FAIL");
  }
  return ok;
}

// ----------------------------------------------------------------- workloads

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool schedule_only = false;
  std::string scratch;
};

/// One configuration's fixed schedule and timed units.
struct Track {
  explicit Track(const char* name) : label(name) {}

  const char* label;
  std::unique_ptr<Trainer> trainer;
  std::vector<double> unit_seconds;
  std::int64_t units = 0, steps = 0;
  std::int64_t aborted_steps = 0;    ///< steps of the unit that threw
  std::optional<double> final_loss;  ///< at the end of the fixed schedule
  double accuracy = -1;
  bool replicas_ok = true;
  int rollbacks = 0;
  std::optional<std::string> error;  ///< set when a unit threw; the track stops

  [[nodiscard]] bool done(const Spec& spec) const {
    return error.has_value() || units >= spec.schedule_units;
  }

  void run(const Spec& spec) {
    const WallTimer timer;
    UnitResult r;
    try {
      r = trainer->run_unit();
    } catch (const std::exception& e) {
      error = std::string(label) + " model, unit " + std::to_string(units + 1) +
              " threw: " + e.what();
      aborted_steps = trainer->steps_per_unit();
      // With no completed unit, the time to the abort is the only timing.
      if (unit_seconds.empty()) unit_seconds.push_back(timer.seconds());
      return;
    }
    unit_seconds.push_back(r.seconds);
    steps += r.steps;
    replicas_ok = replicas_ok && r.replicas_bit_identical;
    rollbacks += r.rollbacks;
    if (++units == spec.schedule_units) {
      final_loss = trainer->train_loss();
      accuracy = trainer->test_accuracy();
    }
  }
};

double samples_per_s(const Spec& spec, const Track& t) {
  const double per_unit =
      static_cast<double>(t.trainer->steps_per_unit() * spec.batch);
  return per_unit / median(t.unit_seconds);
}

void describe_timing(const char* label, const Spec& spec, const Track& t) {
  const auto [q1, q3] = quartiles(t.unit_seconds);
  const double per_unit =
      static_cast<double>(t.trainer->steps_per_unit() * spec.batch);
  std::printf("%s: %zu timed %s, %.0f samples each: median %.4f s (q1 %.4f, q3 %.4f)"
              " -> %.2f samples/s\n",
              label, t.unit_seconds.size(), spec.epochs ? "epochs" : "steps", per_unit,
              median(t.unit_seconds), q1, q3, samples_per_s(spec, t));
}

/// Set-up repeated `reps` times (the last one is kept); returns the median.
template <class Build>
double timed_setup(int reps, Build&& build) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const WallTimer timer;
    build();
    times.push_back(timer.seconds());
  }
  std::printf("setup: %d reps, median %.4f s\n", reps, median(times));
  return median(times);
}

Result run_end_to_end(const Args& args) {
  const Spec& spec = *args.spec;
  const Env env{.scratch_dir = args.scratch, .ledger = nullptr};
  apa::obs::set_enabled(false);
  apa::obs::set_tracing(false);

  Track apa_track("APA"), classical_track("classical");
  const double setup_s = timed_setup(args.schedule_only ? 1 : kSetupReps, [&] {
    apa_track.trainer.reset();
    classical_track.trainer.reset();
    apa_track.trainer = make_trainer(spec, args.seed, true, env);
    classical_track.trainer = make_trainer(spec, args.seed, false, env);
    apa_track.trainer->warmup();
    classical_track.trainer->warmup();
  });

  Result result;
  const WallTimer window;
  for (int pair = 0;; ++pair) {
    const bool schedule_done = apa_track.done(spec) && classical_track.done(spec);
    if (schedule_done && (args.schedule_only || window.seconds() >= args.seconds)) break;
    if (apa_track.error && classical_track.error) break;
    // Alternate which configuration goes first, so slow drift of the host
    // charges both alike.
    Track& first = pair % 2 == 0 ? apa_track : classical_track;
    Track& second = pair % 2 == 0 ? classical_track : apa_track;
    for (Track* track : {&first, &second}) {
      if (!track->error) track->run(spec);
    }
  }
  for (const Track* track : {&apa_track, &classical_track}) {
    if (track->error) result.fail(*track->error);
  }
  const double peak_rss = peak_rss_mib();
  result.attempted = apa_track.steps + apa_track.aborted_steps + classical_track.steps +
                     classical_track.aborted_steps;
  if (result.attempted == 0) result.attempted = 1;

  if (args.schedule_only) {
    const auto bits = [](const std::optional<double>& v) {
      return v ? std::bit_cast<std::uint64_t>(*v) : 0ULL;
    };
    std::printf("{\"correct\": %s, \"apa_loss_bits\": \"%016llx\", "
                "\"classical_loss_bits\": \"%016llx\", \"input_checksum\": \"%016llx\", "
                "\"shapes\": \"%s\"}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(bits(apa_track.final_loss)),
                static_cast<unsigned long long>(bits(classical_track.final_loss)),
                static_cast<unsigned long long>(apa_track.trainer->input_checksum()),
                apa_track.trainer->input_shape().c_str());
    return result;
  }

  describe_timing("apa", spec, apa_track);
  describe_timing("classical", spec, classical_track);
  const double apa_rate = samples_per_s(spec, apa_track);
  const double classical_rate = samples_per_s(spec, classical_track);
  std::printf("derived (not a metric): apa/classical throughput ratio %.4f\n",
              apa_rate / classical_rate);

  if (result.correct) {
    const double la = *apa_track.final_loss;
    const double lc = *classical_track.final_loss;
    std::printf("final_loss after %d %s: apa %.17g classical %.17g\n",
                spec.schedule_units, spec.epochs ? "epochs" : "steps", la, lc);
    if (!std::isfinite(la) ||
        std::abs(la - lc) > kLossToleranceNats + kLossToleranceShare * std::abs(lc)) {
      result.fail("APA final_loss is not within 0.1 nats + 5% of the classical twin's");
    }
    if (spec.epochs) {
      std::printf("test accuracy: apa %.4f classical %.4f\n", apa_track.accuracy,
                  classical_track.accuracy);
      if (std::abs(apa_track.accuracy - classical_track.accuracy) > kAccuracyTolerance) {
        result.fail("APA test accuracy is not within 0.02 of the classical twin's");
      }
    }
    if (spec.guarded) {
      // These runs are fault-free, so a rollback means training diverged. The
      // de-risk that follows changes the APA backend, and the rest of the run
      // would time another configuration.
      const int rollbacks = apa_track.rollbacks + classical_track.rollbacks;
      std::printf("rollbacks: %d\n", rollbacks);
      if (rollbacks != 0) result.fail("training rolled back on a fault-free run");
    }
    if (spec.workers > 1) {
      const bool identical = apa_track.replicas_ok && classical_track.replicas_ok;
      std::printf("data parallel: replicas bit-identical %s\n", identical ? "yes" : "NO");
      if (!identical) result.fail("data-parallel replicas diverged");
    }
    if (!check_products(spec, *apa_track.trainer, args.seed)) {
      result.fail("an APA product missed the double-precision oracle");
    }
  }
  if (!result.correct) result.failed = result.attempted;

  result.add("samples_per_s", apa_rate, "samples/s");
  result.add("classical_samples_per_s", classical_rate, "samples/s");
  // A configuration that stopped early reports the loss where it stopped.
  result.add("final_loss", apa_track.final_loss.value_or(apa_track.trainer->train_loss()),
             "nats");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss, "MiB");
  return result;
}

// ---------------------------------------------------------------- traced run

/// obs phase totals by name: busy seconds (summed over threads) and spans.
using PhaseMap = std::map<std::string, std::pair<double, double>>;

PhaseMap phase_map() {
  PhaseMap out;
  for (const apa::obs::PhaseTotal& p : apa::obs::phase_totals()) {
    out[p.name] = {static_cast<double>(p.total_ns) * 1e-9, static_cast<double>(p.count)};
  }
  return out;
}

double phase_seconds(const PhaseMap& phases, const std::string& name) {
  const auto it = phases.find(name);
  return it == phases.end() ? 0.0 : it->second.first;
}

/// dist metrics: per replica step, except checkpoints (per checkpoint) and
/// resends (per epoch). All 0 on single-process workloads.
void add_dist_metrics(Result& result, const Spec& spec, const PhaseMap& phases,
                      const UnitResult& sum, std::int64_t epochs) {
  const double worker_steps = static_cast<double>(sum.steps * spec.workers);
  double params = 1;  // the reduced loss rides along as one extra element
  for (std::size_t i = 0; i + 1 < spec.layers.size(); ++i) {
    params += static_cast<double>(spec.layers[i] * spec.layers[i + 1] + spec.layers[i + 1]);
  }
  const auto ckpt = phases.find("dist.checkpoint");
  result.add("dist.step.ms", phase_seconds(phases, "dist.step") / worker_steps * 1e3, "ms");
  result.add("dist.allreduce.ms",
             phase_seconds(phases, "dist.allreduce") / worker_steps * 1e3, "ms");
  result.add("dist.checkpoint.ms",
             ckpt != phases.end() && ckpt->second.second > 0
                 ? ckpt->second.first / ckpt->second.second * 1e3
                 : 0.0,
             "ms");
  // Ring all-reduce: each worker sends 2 (W - 1) / W of the buffer.
  result.add("dist.bytes_per_step", 2.0 * (spec.workers - 1) * params * 4.0, "bytes");
  const double fetches = static_cast<double>(sum.prefetch_hits + sum.prefetch_misses);
  result.add("dist.prefetch_hit_ratio",
             fetches > 0 ? static_cast<double>(sum.prefetch_hits) / fetches : 0.0, "ratio");
  result.add("dist.resends",
             static_cast<double>(sum.resend_requests) / static_cast<double>(epochs), "count");
}

/// Sub-gemm flops and computed combine bytes of one call of a product.
std::pair<double, double> product_work(const ProductSlot& s) {
  const double m = static_cast<double>(s.m), k = static_cast<double>(s.k),
               n = static_cast<double>(s.n);
  if (s.rule == nullptr) return {2.0 * m * k * n, 0.0};
  const apa::core::Rule& r = s.rule->rule();
  const double rank = static_cast<double>(r.rank);
  const double dims = static_cast<double>(r.m * r.k * r.n);
  const double flops =
      2.0 * m * k * n * std::pow(rank / dims, std::max(1, s.rule->options().steps));
  const auto nnz = [](const std::vector<apa::core::LaurentPoly>& coeffs) {
    return static_cast<double>(std::count_if(coeffs.begin(), coeffs.end(),
                                             [](const auto& p) { return !p.is_zero(); }));
  };
  const double a_block = std::ceil(m / r.m) * std::ceil(k / r.k);
  const double b_block = std::ceil(k / r.k) * std::ceil(n / r.n);
  const double c_block = std::ceil(m / r.m) * std::ceil(n / r.n);
  // Each combination reads its nonzero terms and writes one block; the output
  // combine reads every term and writes each C block.
  const double bytes = 4.0 * ((nnz(r.u) + rank) * a_block + (nnz(r.v) + rank) * b_block +
                              (nnz(r.w) + static_cast<double>(r.m * r.n)) * c_block);
  return {flops, bytes};
}

Result run_traced(const Args& args) {
  const Spec& spec = *args.spec;
  Ledger ledger;
  const Env env{.scratch_dir = args.scratch, .ledger = &ledger};
  apa::obs::set_enabled(false);
  apa::obs::set_tracing(false);
  std::unique_ptr<Trainer> model = make_trainer(spec, args.seed, true, env);
  model->warmup();

  const auto guard_stats = [&] {
    return model->guard() != nullptr ? model->guard()->stats() : nn::GuardStats{};
  };
  apa::obs::reset_phases();

  Result result;
  // Wall time of each unit; for the traced units also the ledger's share of
  // it (forward_backward + update where the benchmark times the step).
  std::vector<double> traced_s, untraced_s, ledger_unit_s;
  UnitResult sum;
  nn::GuardStats g;  // guard activity during the traced units only
  std::int64_t traced_units = 0;
  const WallTimer window;
  try {
    while (window.seconds() < args.seconds || traced_units < 2) {
      apa::obs::set_enabled(true);
      apa::obs::set_tracing(true);
      ledger.set_enabled(true);
      const nn::GuardStats guard_before = guard_stats();
      const UnitResult r = model->run_unit();
      const nn::GuardStats d = nn::guard_stats_delta(guard_before, guard_stats());
      ledger.set_enabled(false);
      apa::obs::set_tracing(false);
      apa::obs::set_enabled(false);
      traced_s.push_back(r.seconds);
      ledger_unit_s.push_back(spec.epochs ? r.seconds : r.fwd_bwd_seconds + r.update_seconds);
      ++traced_units;
      sum.seconds += r.seconds;
      sum.steps += r.steps;
      sum.fwd_bwd_seconds += r.fwd_bwd_seconds;
      sum.update_seconds += r.update_seconds;
      sum.prefetch_hits += r.prefetch_hits;
      sum.prefetch_misses += r.prefetch_misses;
      sum.resend_requests += r.resend_requests;
      g.fast_calls += d.fast_calls;
      g.checks_run += d.checks_run;
      g.fallback_reruns += d.fallback_reruns;
      g.quarantined_calls += d.quarantined_calls;
      g.worst_ratio = d.worst_ratio;
      result.attempted += r.steps;

      const UnitResult u = model->run_unit();
      untraced_s.push_back(u.seconds);
      result.attempted += u.steps;
      sum.rollbacks += r.rollbacks + u.rollbacks;
    }
  } catch (const std::exception& e) {
    result.fail(std::string("training step threw: ") + e.what());
  }
  if (result.attempted == 0) result.attempted = 1;

  const PhaseMap phases = phase_map();
  const auto phase_s = [&](const std::string& name) { return phase_seconds(phases, name); };
  const double steps = static_cast<double>(std::max<std::int64_t>(1, sum.steps));
  const double workers = spec.workers;
  const double worker_steps = steps * workers;  // per-replica step count
  const double ms = 1e3;

  // nn: the per-product ledger.
  const auto slots = ledger.slots();
  double products_s = 0, flops = 0, combine_bytes = 0;
  for (int l = 0; l < kMaxLayers; ++l) {
    for (int p = 0; p < kNumProducts; ++p) {
      const ProductSlot& s = slots[static_cast<std::size_t>(l)][static_cast<std::size_t>(p)];
      const std::string key = "nn.fc" + std::to_string(l) + "." + kProductNames[p];
      const double per_call = s.calls > 0 ? s.seconds / static_cast<double>(s.calls) : 0;
      const auto [call_flops, call_bytes] = product_work(s);
      result.add(key + ".ms", per_call * ms, "ms");
      result.add(key + ".gflops",
                 per_call > 0 ? 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                                    static_cast<double>(s.n) / per_call * 1e-9
                              : 0.0,
                 "GFLOP/s");
      result.add(key + ".apa", s.rule != nullptr ? 1.0 : 0.0, "bool");
      products_s += s.seconds;
      flops += call_flops * static_cast<double>(s.calls);
      combine_bytes += call_bytes * static_cast<double>(s.calls);
    }
  }

  double fwd_bwd_s, update_s;
  if (spec.workers > 1) {
    fwd_bwd_s = phase_s("nn.forward") + phase_s("nn.backward");
    update_s = phase_s("dist.step") - fwd_bwd_s - phase_s("dist.allreduce");
  } else if (spec.epochs) {
    fwd_bwd_s = phase_s("nn.forward") + phase_s("nn.backward");
    update_s = phase_s("train.step") - fwd_bwd_s;
  } else {
    fwd_bwd_s = sum.fwd_bwd_seconds;
    update_s = sum.update_seconds;
  }
  const double other_s = fwd_bwd_s - products_s;
  result.add("nn.fwd_bwd.ms", fwd_bwd_s / worker_steps * ms, "ms");
  result.add("nn.update.ms", update_s / worker_steps * ms, "ms");
  result.add("nn.other.ms", other_s / worker_steps * ms, "ms");
  result.add("nn.checkpoint.ms",
             phase_s("train.checkpoint") / static_cast<double>(traced_units) * ms, "ms");

  // Reconciliation. The products (decorator timer) must nest inside
  // forward_backward (obs phases or the benchmark's step timer). And the
  // ledger's unit total must match the wall time of the untraced units, which
  // no traced timer sees: a resident-batch step is forward_backward + update;
  // an epoch is the traced epoch (steps, checkpoints and the data work between
  // them), so there this compares traced with untraced epochs.
  const bool nested = other_s >= -0.01 * fwd_bwd_s;
  const double ledger_unit = median(ledger_unit_s);
  const double untraced_unit = median(untraced_s);
  const bool matches_untraced =
      std::abs(ledger_unit - untraced_unit) <= kReconcileTolerance * untraced_unit;
  std::printf("ledger: products %.4f s inside forward_backward %.4f s: %s; median unit "
              "%.4f s (%s) vs untraced %.4f s: %s; unattributed calls %lld\n",
              products_s, fwd_bwd_s, nested ? "ok" : "NO", ledger_unit,
              spec.epochs ? "traced epoch" : "forward_backward + update", untraced_unit,
              matches_untraced ? "reconciles" : "DOES NOT RECONCILE",
              static_cast<long long>(ledger.unattributed_calls()));
  if (!nested || !matches_untraced || ledger.unattributed_calls() != 0) {
    result.fail("the per-product ledger does not reconcile");
  }
  if (sum.rollbacks > 0) {
    std::printf("note: %d training rollback(s); each de-risk replaced the fast backend with "
                "an undecorated one, so the ledger and guard stats miss the calls after it\n",
                sum.rollbacks);
  }

  // blas and core busy times, summed over threads.
  const double kernel_s = phase_s("blas.kernel");
  const double pack_s = phase_s("blas.pack_a") + phase_s("blas.pack_b");
  const double combine_s =
      phase_s("core.combine_a") + phase_s("core.combine_b") + phase_s("core.combine_c");
  result.add("blas.kernel.busy_ms", kernel_s / steps * ms, "ms");
  result.add("blas.pack.busy_ms", pack_s / steps * ms, "ms");
  result.add("blas.prepack.busy_ms",
             (phase_s("blas.prepack_a") + phase_s("blas.prepack_b")) / steps * ms, "ms");
  result.add("blas.epilogue.busy_ms", phase_s("blas.epilogue") / steps * ms, "ms");
  result.add("blas.kernel_gflops", kernel_s > 0 ? flops / kernel_s * 1e-9 : 0.0,
             "GFLOP/s");
  result.add("core.combine.busy_ms", combine_s / steps * ms, "ms");
  result.add("core.pad.busy_ms", phase_s("core.pad") / steps * ms, "ms");
  const double busy = combine_s + pack_s + kernel_s;
  result.add("core.combine_share", busy > 0 ? combine_s / busy : 0.0, "ratio");
  result.add("core.combine_gbs", combine_s > 0 ? combine_bytes / combine_s * 1e-9 : 0.0,
             "GB/s");

  // guard: activity during the traced units.
  result.add("guard.verify.busy_ms", phase_s("guard.verify") / steps * ms, "ms");
  result.add("guard.checks", static_cast<double>(g.checks_run) / steps, "count");
  result.add("guard.fallback_share",
             g.fast_calls > 0 ? static_cast<double>(g.fallback_reruns) /
                                    static_cast<double>(g.fast_calls)
                              : 0.0,
             "ratio");
  result.add("guard.quarantined_calls", static_cast<double>(g.quarantined_calls), "count");
  result.add("guard.worst_ratio", g.worst_ratio, "ratio");

  // data: generation, and per-step epoch time outside the steps.
  result.add("data.gen_s", model->data_gen_seconds(), "s");
  double epoch_overhead_s = 0;
  if (spec.workers > 1) {
    epoch_overhead_s =
        sum.seconds - (phase_s("dist.step") + phase_s("dist.checkpoint")) / workers;
  } else if (spec.epochs) {
    epoch_overhead_s = sum.seconds - phase_s("train.step") - phase_s("train.checkpoint");
  }
  result.add("data.epoch_overhead.ms", epoch_overhead_s / steps * ms, "ms");

  add_dist_metrics(result, spec, phases, sum, traced_units);

  // obs: traced throughput over untraced throughput.
  result.add("obs.trace_overhead", median(untraced_s) / median(traced_s), "ratio");
  std::printf("traced units %zu (median %.4f s), untraced units %zu (median %.4f s)\n",
              traced_s.size(), median(traced_s), untraced_s.size(), median(untraced_s));

  if (result.correct && !check_products(spec, *model, args.seed)) {
    result.fail("an APA product missed the double-precision oracle");
  }
  if (!result.correct) result.failed = result.attempted;
  return result;
}

const char* microkernel_isa() {
#if defined(__AVX512F__) && !defined(APAMM_DISABLE_AVX512)
  return "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#else
  return "portable";
#endif
}

int run(int argc, char** argv) {
  const apa::CliArgs cli(argc, argv);
  Args args;
  args.spec = find_spec(cli.get("workload", ""));
  if (args.spec == nullptr) {
    std::fprintf(stderr, "unknown --workload; one of paradnn, mnist, mnist-dp\n");
    return 2;
  }
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10);
  args.trace = cli.get_int("trace", 0) != 0;
  args.schedule_only = cli.get_bool("schedule-only", false);
  args.scratch = cli.get("scratch", ".");
  std::filesystem::create_directories(args.scratch);

  std::printf("workload %s seed %llu: %s, batch %ld, %d thread(s)%s%s\n",
              args.spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.spec->algorithm.c_str(), static_cast<long>(args.spec->batch),
              args.spec->threads,
              args.spec->workers > 1
                  ? (", " + std::to_string(args.spec->workers) + " workers").c_str()
                  : "",
              args.spec->guarded ? ", guarded" : "");
  std::printf("build: {\"microkernel_isa\": \"%s\", \"obs_compiled_in\": %s}\n",
              microkernel_isa(), apa::obs::kCompiledIn ? "true" : "false");
  const Result result = args.trace ? run_traced(args) : run_end_to_end(args);
  if (!args.schedule_only) print_result(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_train: %s\n", e.what());
    return 1;
  }
}
