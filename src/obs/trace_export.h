#pragma once
// Chrome-trace (chrome://tracing / Perfetto "Trace Event Format") export of
// the per-thread span rings recorded by obs/trace.h. Timestamps are rebased to
// the earliest recorded span and emitted in microseconds, as the format
// expects. See docs/OBSERVABILITY.md for how to open the output.
//
// One process exports one trace with one track per thread. A thread that
// declared a data-parallel worker rank (obs::set_thread_rank) is named
// "rank R", every other thread "thread N"; all-reduce hand-offs between
// worker threads appear as "s"/"f" flow events.

#include <string>

namespace apa::obs {

/// The recorded spans as a complete Chrome-trace JSON document ("X" duration
/// events plus "s"/"f" flow events, one pid, tids in thread-registration
/// order). Always valid JSON — an empty recording (or an APAMM_OBS=OFF build)
/// yields an empty event list.
[[nodiscard]] std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; returns false (after logging to
/// stderr) when the file cannot be written. Empty path is a no-op success.
bool write_chrome_trace(const std::string& path);

}  // namespace apa::obs
