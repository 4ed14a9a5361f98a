#include "obs/trace.h"

#include <algorithm>
#include <map>
#include <memory>

#include "obs/flight.h"
#include "support/thread_annotations.h"

namespace apa::obs {

#if defined(APAMM_OBS_ENABLED)

namespace detail {

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_tracing{false};

namespace {

/// Default ring capacity per thread: 64k events x 40 bytes = 2.5 MiB. On
/// overflow the oldest events are overwritten and counted as dropped;
/// set_trace_capacity (--trace-cap) rebounds the retention for long runs.
constexpr std::uint64_t kDefaultRingCapacity = 1u << 16;

/// Current bound for rings, paired with a generation counter. A resize only
/// bumps the generation; each producer swaps its own ring to the new bound
/// lazily (next record), so set_trace_capacity never touches storage that
/// another thread is writing. Drains treat stale-generation rings as empty.
std::atomic<std::uint64_t> g_ring_capacity{kDefaultRingCapacity};
std::atomic<std::uint64_t> g_ring_generation{0};

struct TraceEvent {
  const char* name = nullptr;  ///< interned Phase name — stable for process life
  std::int64_t id = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  TraceEventKind kind = TraceEventKind::kSpan;
};

/// Single-producer ring: only the owning thread writes slots; readers drain
/// under the registry mutex using the release-published count. resize_mu
/// serializes the owner's lazy reallocation against drains touching storage.
struct ThreadRing {
  ThreadRing(int tid_, int rank_, std::uint64_t capacity,
             std::uint64_t generation_)
      : ring(static_cast<std::size_t>(capacity)),
        generation(generation_),
        tid(tid_),
        rank(rank_) {}
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(ring.size());
  }
  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> count{0};  ///< total events ever pushed
  std::atomic<std::uint64_t> generation;
  // apamm-check-allow(R3): single-producer ring — slots are written lock-free
  // by the owner; resize_mu only serializes the owner's storage swap against
  // drains, so no field is exclusively guarded by it.
  Mutex resize_mu;
  int tid = 0;
  std::atomic<int> rank;
};

struct RingRegistry {
  Mutex mu;
  // Owned here, never freed: a thread that exits leaves its ring readable, and
  // a dangling thread_local pointer can never observe a destroyed ring.
  std::vector<std::unique_ptr<ThreadRing>> rings APAMM_GUARDED_BY(mu);
};

RingRegistry& registry() {
  static RingRegistry* r = new RingRegistry();  // leaked: outlives all threads
  return *r;
}

thread_local ThreadRing* tls_ring = nullptr;
thread_local int tls_rank = -1;

ThreadRing* this_thread_ring() {
  if (tls_ring == nullptr) {
    RingRegistry& reg = registry();
    MutexLock lock(reg.mu);
    // Capacity and generation are read together under the registry mutex,
    // which set_trace_capacity also holds — a fresh ring is never born stale.
    reg.rings.push_back(std::make_unique<ThreadRing>(
        static_cast<int>(reg.rings.size()), tls_rank,
        g_ring_capacity.load(std::memory_order_relaxed),
        g_ring_generation.load(std::memory_order_relaxed)));
    tls_ring = reg.rings.back().get();
  }
  return tls_ring;
}

struct PhaseRegistry {
  Mutex mu;
  std::map<std::string, std::unique_ptr<Phase>, std::less<>> phases
      APAMM_GUARDED_BY(mu);
};

PhaseRegistry& phase_registry() {
  static PhaseRegistry* r = new PhaseRegistry();
  return *r;
}

}  // namespace

void record_event(const char* name, std::int64_t id, std::uint64_t start_ns,
                  std::uint64_t dur_ns, TraceEventKind kind) {
  ThreadRing* ring = this_thread_ring();
  // Lazy resize: a stale generation means set_trace_capacity ran since this
  // ring was (re)allocated. Only the owner swaps its storage, under resize_mu
  // so a concurrent drain never reads a vector mid-reallocation.
  const std::uint64_t gen = g_ring_generation.load(std::memory_order_acquire);
  if (ring->generation.load(std::memory_order_relaxed) != gen) {
    MutexLock lock(ring->resize_mu);
    ring->ring.assign(
        static_cast<std::size_t>(
            g_ring_capacity.load(std::memory_order_relaxed)),
        TraceEvent{});
    ring->count.store(0, std::memory_order_release);
    ring->generation.store(gen, std::memory_order_release);
  }
  // Memory-order audit (single-producer ring): the relaxed self-load is safe
  // because only this thread ever stores count; the release store publishes
  // the filled slot to drains, whose acquire load of count (trace_events,
  // trace_dropped) synchronizes-with it, so every slot inside the window a
  // drain computes from its loaded count is fully written. Once the ring has
  // wrapped, the producer overwrites slots that fall inside a concurrent
  // drain's window — that is why the header requires drains to run while
  // producers are quiescent rather than adding per-slot sequence locks.
  const std::uint64_t n = ring->count.load(std::memory_order_relaxed);
  TraceEvent& slot = ring->ring[n % ring->capacity()];
  slot.name = name;
  slot.id = id;
  slot.start_ns = start_ns;
  slot.dur_ns = dur_ns;
  slot.kind = kind;
  ring->count.store(n + 1, std::memory_order_release);
}

}  // namespace detail

Phase* Phase::intern(const char* name) {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  auto it = reg.phases.find(std::string_view(name));
  if (it == reg.phases.end()) {
    it = reg.phases
             .emplace(std::string(name),
                      std::unique_ptr<Phase>(new Phase(std::string(name))))
             .first;
  }
  return it->second.get();
}

void Span::finish() {
  const std::uint64_t dur = detail::now_ns() - start_;
  phase_->record(dur);
  if (detail::g_tracing.load(std::memory_order_relaxed)) {
    detail::record_event(phase_->name(), id_, start_, dur,
                         TraceEventKind::kSpan);
  }
  // Mirror into the flight recorder's always-on black box (obs/flight.h).
  if (detail::g_flight_on.load(std::memory_order_relaxed)) {
    detail::flight_span(phase_->name(), id_, start_, dur);
  }
}

void set_thread_rank(int rank) {
  detail::tls_rank = rank;
  if (detail::tls_ring != nullptr) {
    detail::tls_ring->rank.store(rank, std::memory_order_relaxed);
  }
  detail::flight_set_thread_rank(rank);
}

int thread_rank() { return detail::tls_rank; }

void set_trace_capacity(std::uint64_t events_per_thread) {
  const std::uint64_t cap = std::max<std::uint64_t>(events_per_thread, 1);
  detail::RingRegistry& reg = detail::registry();
  MutexLock lock(reg.mu);
  detail::g_ring_capacity.store(cap, std::memory_order_relaxed);
  // Publishing the new generation is the whole resize: producers observe the
  // bump on their next record and swap their own storage; drains below skip
  // rings still on the old generation. No other thread's ring is touched, so
  // this is safe against concurrent recorders.
  detail::g_ring_generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t trace_capacity() {
  return detail::g_ring_capacity.load(std::memory_order_relaxed);
}

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_tracing(bool on) { detail::g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return detail::g_tracing.load(std::memory_order_relaxed); }

std::vector<PhaseTotal> phase_totals() {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  std::vector<PhaseTotal> out;
  out.reserve(reg.phases.size());
  for (const auto& [name, phase] : reg.phases) {
    out.push_back({name, phase->total_ns_.load(std::memory_order_relaxed),
                   phase->count_.load(std::memory_order_relaxed)});
  }
  return out;  // map iteration order is already sorted by name
}

std::vector<PhaseTotal> phase_delta(const std::vector<PhaseTotal>& after,
                                    const std::vector<PhaseTotal>& before) {
  std::map<std::string, PhaseTotal> base;
  for (const PhaseTotal& p : before) base[p.name] = p;
  std::vector<PhaseTotal> out;
  for (const PhaseTotal& p : after) {
    PhaseTotal d = p;
    const auto it = base.find(p.name);
    if (it != base.end()) {
      d.total_ns -= it->second.total_ns;
      d.count -= it->second.count;
    }
    if (d.count > 0 || d.total_ns > 0) out.push_back(std::move(d));
  }
  return out;
}

void reset_phases() {
  detail::PhaseRegistry& reg = detail::phase_registry();
  MutexLock lock(reg.mu);
  for (const auto& [name, phase] : reg.phases) {
    phase->total_ns_.store(0, std::memory_order_relaxed);
    phase->count_.store(0, std::memory_order_relaxed);
  }
}

std::vector<TraceEventView> trace_events() {
  detail::RingRegistry& reg = detail::registry();
  MutexLock lock(reg.mu);
  const std::uint64_t gen =
      detail::g_ring_generation.load(std::memory_order_acquire);
  std::vector<TraceEventView> out;
  for (const auto& ring : reg.rings) {
    MutexLock storage_lock(ring->resize_mu);
    // A ring the owner has not yet migrated to the current capacity holds
    // pre-resize events; set_trace_capacity documents those as discarded.
    if (ring->generation.load(std::memory_order_acquire) != gen) continue;
    const int rank = ring->rank.load(std::memory_order_relaxed);
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min(n, ring->capacity());
    const std::uint64_t first = n - kept;  // oldest surviving event index
    for (std::uint64_t i = first; i < n; ++i) {
      const detail::TraceEvent& ev = ring->ring[i % ring->capacity()];
      out.push_back({ev.name, ev.id, ring->tid, rank, ev.kind, ev.start_ns,
                     ev.dur_ns});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.tid, a.start_ns) < std::tie(b.tid, b.start_ns);
  });
  return out;
}

std::uint64_t trace_dropped() {
  detail::RingRegistry& reg = detail::registry();
  MutexLock lock(reg.mu);
  const std::uint64_t gen =
      detail::g_ring_generation.load(std::memory_order_acquire);
  std::uint64_t dropped = 0;
  for (const auto& ring : reg.rings) {
    MutexLock storage_lock(ring->resize_mu);
    if (ring->generation.load(std::memory_order_acquire) != gen) continue;
    const std::uint64_t n = ring->count.load(std::memory_order_acquire);
    if (n > ring->capacity()) dropped += n - ring->capacity();
  }
  return dropped;
}

void reset_trace() {
  detail::RingRegistry& reg = detail::registry();
  MutexLock lock(reg.mu);
  for (const auto& ring : reg.rings) {
    ring->count.store(0, std::memory_order_release);
  }
}

#else  // !APAMM_OBS_ENABLED

void set_trace_capacity(std::uint64_t) {}
std::uint64_t trace_capacity() { return 0; }
void set_enabled(bool) {}
bool enabled() { return false; }
void set_tracing(bool) {}
bool tracing() { return false; }
void set_thread_rank(int) {}
int thread_rank() { return -1; }
std::vector<PhaseTotal> phase_totals() { return {}; }
std::vector<PhaseTotal> phase_delta(const std::vector<PhaseTotal>&,
                                    const std::vector<PhaseTotal>&) {
  return {};
}
void reset_phases() {}
std::vector<TraceEventView> trace_events() { return {}; }
std::uint64_t trace_dropped() { return 0; }
void reset_trace() {}

#endif  // APAMM_OBS_ENABLED

}  // namespace apa::obs
