#include "obs/trace_export.h"

#include <cstdio>
#include <limits>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace apa::obs {

std::string chrome_trace_json() {
  const std::vector<TraceEventView> events = trace_events();

  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const TraceEventView& ev : events) {
    t0 = ev.start_ns < t0 ? ev.start_ns : t0;
  }
  if (events.empty()) t0 = 0;

  // Track names come from the rank each thread declared; -1 = none.
  std::vector<int> tid_rank;
  for (const TraceEventView& ev : events) {
    const auto tid = static_cast<std::size_t>(ev.tid);
    if (tid >= tid_rank.size()) tid_rank.resize(tid + 1, -1);
    tid_rank[tid] = ev.rank;
  }

  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"apamm\"}}";
  for (std::size_t tid = 0; tid < tid_rank.size(); ++tid) {
    const int rank = tid_rank[tid];
    char buf[112];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %zu, \"args\": {\"name\": \"%s %d\"}}",
                  tid, rank >= 0 ? "rank" : "thread",
                  rank >= 0 ? rank : static_cast<int>(tid));
    out += buf;
  }
  for (const TraceEventView& ev : events) {
    char buf[160];
    if (ev.kind != TraceEventKind::kSpan) {
      // Flow arrow halves: "s" leaves the sender, "f" (bp=e) binds to the
      // receiver's enclosing slice. The id pairs the two sides.
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\": %s, \"cat\": \"dist\", \"ph\": \"%s\", "
          "%s\"id\": %lld, \"pid\": 1, \"tid\": %d, \"ts\": %.3f}",
          json_quote(ev.name).c_str(),
          ev.kind == TraceEventKind::kFlowOut ? "s" : "f",
          ev.kind == TraceEventKind::kFlowOut ? "" : "\"bp\": \"e\", ",
          static_cast<long long>(ev.id), ev.tid,
          (static_cast<double>(ev.start_ns) - static_cast<double>(t0)) / 1e3);
      out += buf;
      continue;
    }
    // Trace-event ts/dur are microseconds; keep ns precision as fractions.
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": %s, \"cat\": \"apamm\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                  json_quote(ev.name).c_str(), ev.tid,
                  (static_cast<double>(ev.start_ns) - static_cast<double>(t0)) /
                      1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    out += buf;
    if (ev.id >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"id\": %lld}",
                    static_cast<long long>(ev.id));
      out += buf;
    }
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace output %s\n", path.c_str());
    return false;
  }
  const std::string json = chrome_trace_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace apa::obs
