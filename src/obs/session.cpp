#include "obs/session.h"

#include <cstdio>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace apa::obs {

ObsSession::ObsSession(std::string trace_path, std::string metrics_path,
                       std::uint64_t trace_cap_events)
    : ObsSession(ObsSessionOptions{std::move(trace_path),
                                   std::move(metrics_path), trace_cap_events,
                                   /*flight_dir=*/""}) {}

ObsSession::ObsSession(ObsSessionOptions options)
    : options_(std::move(options)) {
  if (!options_.trace_path.empty()) {
    if (!kCompiledIn) {
      std::fprintf(stderr,
                   "obs: built with APAMM_OBS=OFF — %s will contain no spans\n",
                   options_.trace_path.c_str());
    }
    // Resize before recording starts so no pre-session events are discarded
    // (set_trace_capacity itself is safe against concurrent recorders).
    if (options_.trace_cap_events > 0) {
      set_trace_capacity(options_.trace_cap_events);
    }
    reset_trace();
    set_tracing(true);
    tracing_started_ = true;
  }
  if (!options_.metrics_path.empty()) {
    sink_ = std::make_unique<TelemetrySink>(options_.metrics_path);
    // A killed run (SIGTERM/SIGINT mid-epoch) must keep every completed
    // guard/rollback record: fsync the sink from the signal path.
    install_telemetry_crash_flush();
    // Drift records stream into the same sink.
    health().attach(sink_.get());
  }
  if (!options_.flight_dir.empty()) {
    set_flight_dir(options_.flight_dir);
    install_flight_triggers();
  }
}

ObsSession::~ObsSession() { flush(); }

void ObsSession::flush() {
  if (flushed_) return;
  flushed_ = true;
  if (tracing_started_) set_tracing(false);
  if (sink_ != nullptr) {
    // Final drift snapshot: streams too short for the emit_every cadence
    // still reach health_report.
    health().emit_all();
    health().attach(nullptr);
    if (sink_->ok()) {
      sink_->write(counters_record());
      std::printf("wrote %s\n", sink_->path().c_str());
    }
  }
  if (options_.trace_path.empty()) return;
  if (write_chrome_trace(options_.trace_path)) {
    std::printf("wrote %s (%llu spans%s)\n", options_.trace_path.c_str(),
                static_cast<unsigned long long>(trace_events().size()),
                trace_dropped() > 0 ? ", ring overflowed — oldest dropped"
                                    : "");
  }
}

}  // namespace apa::obs
