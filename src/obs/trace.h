#pragma once
// Scoped tracing spans with per-thread lock-free ring buffers.
//
// Two collection levels, both runtime-switchable:
//   * phase accumulation (set_enabled, default on): every APA_TRACE_SCOPE adds
//     its duration to a named atomic accumulator — the per-phase time
//     breakdowns in EpochStats and the telemetry JSONL come from these;
//   * ring recording (set_tracing, default off): spans additionally append a
//     TraceEvent to the calling thread's ring buffer for Chrome-trace export
//     (obs/trace_export.h). Rings are single-producer (the owning thread) and
//     drained at export time, so recording takes no lock.
//
// Distributed correlation (docs/OBSERVABILITY.md §Distributed runs): a thread
// can declare the worker rank it acts for (set_thread_rank), the all-reduce
// records paired flow events (APA_TRACE_FLOW_OUT/IN) when a contribution is
// published and when it is consumed, keyed by an id both sides derive, and
// clock_mark() publishes a per-rank barrier timestamp that
// tools/obs/trace_merge uses to align N per-rank trace files onto one
// timeline.
//
// Configuring with -DAPAMM_OBS=OFF compiles every macro to a no-op with zero
// runtime cost; the query functions below remain callable and return empty.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if defined(APAMM_OBS_ENABLED)
#include <atomic>
#include <chrono>
#endif

namespace apa::obs {

#if defined(APAMM_OBS_ENABLED)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// Merged totals for one span name — the unit of the per-phase breakdown.
struct PhaseTotal {
  std::string name;
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// What a recorded event represents in the Chrome trace: a duration slice or
/// one side of a cross-worker flow arrow (ring send -> ring receive).
enum class TraceEventKind : std::uint8_t { kSpan = 0, kFlowOut = 1, kFlowIn = 2 };

/// One recorded span, flattened for export and tests.
struct TraceEventView {
  std::string name;
  std::int64_t id = -1;  ///< APA_TRACE_SCOPE_ID payload / flow id; -1 when absent
  int tid = 0;           ///< registration-order thread index
  int rank = -1;         ///< worker rank declared via set_thread_rank, -1 = none
  TraceEventKind kind = TraceEventKind::kSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Per-rank clock-alignment mark captured at a dist barrier (clock_mark).
struct ClockMark {
  int rank = -1;
  std::uint64_t mark_ns = 0;
};

// Runtime controls. All are no-ops (and the getters constant) when compiled out.
void set_enabled(bool on);
[[nodiscard]] bool enabled();
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Declares the dist worker rank the calling thread acts for; recorded events
/// from this thread carry the rank so per-rank trace files can be split out.
/// Threads that never call this stay at rank -1 (exported with rank 0's file).
void set_thread_rank(int rank);
/// The calling thread's declared rank, or -1.
[[nodiscard]] int thread_rank();

/// Publishes "rank's steady clock read `now` while all live workers sat at the
/// same barrier". trace_merge subtracts the pairwise mark deltas to place N
/// per-rank trace files on one aligned timeline. Last call per rank wins.
void clock_mark(int rank);
/// All published marks, sorted by rank. Empty when compiled out.
[[nodiscard]] std::vector<ClockMark> clock_marks();
void reset_clock_marks();

/// Bounds ring retention to `events_per_thread` spans (default 64Ki; clamped
/// to >= 1). Safe to call while other threads are actively recording: the
/// resize only bumps a global generation — each producer lazily swaps its own
/// ring to the new bound on its next record, and drains treat rings from an
/// older generation as empty. Events recorded before the resize are discarded.
void set_trace_capacity(std::uint64_t events_per_thread);
/// Current per-thread ring bound, or 0 when compiled out.
[[nodiscard]] std::uint64_t trace_capacity();

/// Phase accumulator snapshot: merged by name, sorted by name.
[[nodiscard]] std::vector<PhaseTotal> phase_totals();
/// Entry-wise `after - before` (matched by name), zero entries dropped.
[[nodiscard]] std::vector<PhaseTotal> phase_delta(
    const std::vector<PhaseTotal>& after, const std::vector<PhaseTotal>& before);
void reset_phases();

/// Snapshot of every thread's ring, ordered by (tid, start). Call while span
/// producers are quiescent — rings are drained without stopping writers.
[[nodiscard]] std::vector<TraceEventView> trace_events();
/// Events lost to ring wrap-around since the last reset.
[[nodiscard]] std::uint64_t trace_dropped();
void reset_trace();

#if defined(APAMM_OBS_ENABLED)

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_tracing;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_event(const char* name, std::int64_t id, std::uint64_t start_ns,
                  std::uint64_t dur_ns, TraceEventKind kind);
}  // namespace detail

/// Named span accumulator. Interned once per name (APA_TRACE_SCOPE caches the
/// pointer in a function-local static), so the hot path is two atomic adds.
class Phase {
 public:
  static Phase* intern(const char* name);

  void record(std::uint64_t dur_ns) {
    total_ns_.fetch_add(dur_ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] const char* name() const { return name_.c_str(); }

 private:
  friend std::vector<PhaseTotal> phase_totals();
  friend void reset_phases();
  explicit Phase(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII span: times the enclosing scope into `phase`, and into the thread's
/// ring when tracing is on. Dormant cost (collection disabled) is one relaxed
/// atomic load.
class Span {
 public:
  explicit Span(Phase* phase, std::int64_t id = -1) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      phase_ = phase;
      id_ = id;
      start_ = detail::now_ns();
    }
  }
  ~Span() {
    if (phase_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void finish();
  Phase* phase_ = nullptr;
  std::int64_t id_ = -1;
  std::uint64_t start_ = 0;
};

/// Records one side of a cross-worker flow arrow (zero-duration event bound to
/// the enclosing slice in Perfetto). `id` must match on both sides — dist uses
/// the Message trace-context span id.
inline void record_flow(Phase* phase, std::uint64_t id, bool out) {
  if (!detail::g_tracing.load(std::memory_order_relaxed)) return;
  detail::record_event(phase->name(), static_cast<std::int64_t>(id),
                       detail::now_ns(), 0,
                       out ? TraceEventKind::kFlowOut : TraceEventKind::kFlowIn);
}

#define APA_OBS_CONCAT_INNER(a, b) a##b
#define APA_OBS_CONCAT(a, b) APA_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope under `name` (a string literal).
#define APA_TRACE_SCOPE(name)                                        \
  static ::apa::obs::Phase* const APA_OBS_CONCAT(apa_obs_phase_,     \
                                                 __LINE__) =         \
      ::apa::obs::Phase::intern(name);                               \
  const ::apa::obs::Span APA_OBS_CONCAT(apa_obs_span_, __LINE__)(    \
      APA_OBS_CONCAT(apa_obs_phase_, __LINE__))

/// Like APA_TRACE_SCOPE, tagging the recorded event with an integer id (e.g.
/// the APA term index); accumulation still merges under `name`.
#define APA_TRACE_SCOPE_ID(name, id)                                 \
  static ::apa::obs::Phase* const APA_OBS_CONCAT(apa_obs_phase_,     \
                                                 __LINE__) =         \
      ::apa::obs::Phase::intern(name);                               \
  const ::apa::obs::Span APA_OBS_CONCAT(apa_obs_span_, __LINE__)(    \
      APA_OBS_CONCAT(apa_obs_phase_, __LINE__),                      \
      static_cast<std::int64_t>(id))

/// Emitting half of a send->receive flow arrow under `name` (string literal).
#define APA_TRACE_FLOW_OUT(name, flow_id)                            \
  do {                                                               \
    static ::apa::obs::Phase* const apa_obs_flow_phase =             \
        ::apa::obs::Phase::intern(name);                             \
    ::apa::obs::record_flow(apa_obs_flow_phase,                      \
                            static_cast<std::uint64_t>(flow_id), true); \
  } while (false)

/// Receiving half of a send->receive flow arrow; `flow_id` must match the
/// sender's.
#define APA_TRACE_FLOW_IN(name, flow_id)                             \
  do {                                                               \
    static ::apa::obs::Phase* const apa_obs_flow_phase =             \
        ::apa::obs::Phase::intern(name);                             \
    ::apa::obs::record_flow(apa_obs_flow_phase,                      \
                            static_cast<std::uint64_t>(flow_id), false); \
  } while (false)

#else  // !APAMM_OBS_ENABLED

#define APA_TRACE_SCOPE(name) \
  do {                        \
  } while (false)
#define APA_TRACE_SCOPE_ID(name, id) \
  do {                               \
    (void)sizeof((id));              \
  } while (false)
#define APA_TRACE_FLOW_OUT(name, flow_id) \
  do {                                    \
    (void)sizeof((flow_id));              \
  } while (false)
#define APA_TRACE_FLOW_IN(name, flow_id) \
  do {                                   \
    (void)sizeof((flow_id));             \
  } while (false)

#endif  // APAMM_OBS_ENABLED

}  // namespace apa::obs
