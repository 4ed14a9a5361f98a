#pragma once
// One-call observability wiring for example/bench binaries: construct an
// ObsSession from the --trace-out / --metrics-out / --flight-dir flag values
// and the outputs are produced at scope exit. Enables ring recording only
// when a trace path was given, so binaries run without flags pay only the
// dormant span cost.
//
// One process writes one trace and one metrics stream. Data-parallel workers
// are threads of this process: each gets its own "rank R" track in the trace
// and writes its records, tagged with "rank", to the shared sink.

#include <cstdint>
#include <memory>
#include <string>

#include "obs/telemetry.h"

namespace apa::obs {

struct ObsSessionOptions {
  std::string trace_path;    ///< Chrome-trace output; enables ring recording
  std::string metrics_path;  ///< telemetry JSONL output
  std::uint64_t trace_cap_events = 0;  ///< --trace-cap; 0 keeps current bound
  std::string flight_dir;    ///< arms flight-recorder dumps into this dir
};

class ObsSession {
 public:
  /// Empty paths disable the corresponding output. A non-empty `trace_path`
  /// turns on ring recording (obs::set_tracing) for the session's lifetime.
  /// `trace_cap_events` bounds ring retention per thread (--trace-cap);
  /// 0 keeps the current capacity (64Ki spans/thread by default).
  ObsSession(std::string trace_path, std::string metrics_path,
             std::uint64_t trace_cap_events = 0);
  explicit ObsSession(ObsSessionOptions options);
  /// Calls flush().
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The JSONL sink for --metrics-out, or nullptr when the flag was absent.
  /// Feed it per-epoch records (nn::append_epoch_record) or pass it to
  /// TrainGuardOptions::telemetry / DistTrainOptions::telemetry. Writes are
  /// serialized, so every worker thread may share it.
  [[nodiscard]] TelemetrySink* telemetry() const { return sink_.get(); }

  /// Appends the final counters record to the metrics stream and writes the
  /// Chrome trace. Idempotent; called by the destructor.
  void flush();

 private:
  ObsSessionOptions options_;
  std::unique_ptr<TelemetrySink> sink_;
  bool tracing_started_ = false;
  bool flushed_ = false;
};

}  // namespace apa::obs
