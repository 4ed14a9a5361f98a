// ObsSession wiring: empty options open nothing, a metrics path is written
// as given and ends with one counters record, and a trace path records for
// the session's lifetime under the session's ring cap and is written once at
// flush. The multi-worker one-trace, one-stream contract is covered by
// tests/dist/obs_session_test.cpp.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using namespace apa;
namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

fs::path make_temp_dir(const char* stem) {
  const fs::path dir =
      fs::temp_directory_path() /
      (std::string(stem) + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ObsSession, EmptyOptionsProduceNoSinksAndFlushIsIdempotent) {
  obs::ObsSession session(obs::ObsSessionOptions{});
  EXPECT_EQ(session.telemetry(), nullptr);
  session.flush();
  session.flush();
}

TEST(ObsSession, SingleRankSessionKeepsPlainPaths) {
  const fs::path dir = make_temp_dir("apamm_session_single_");
  obs::ObsSessionOptions options;
  options.metrics_path = (dir / "metrics.jsonl").string();
  {
    obs::ObsSession session(options);
    ASSERT_NE(session.telemetry(), nullptr);
    obs::JsonRecord record;
    record.set("marker", "single-rank");
    session.telemetry()->write(record);
  }
  EXPECT_TRUE(fs::exists(dir / "metrics.jsonl"));
  EXPECT_FALSE(fs::exists(dir / "metrics.rank0.jsonl"));
  EXPECT_NE(slurp(dir / "metrics.jsonl").find("single-rank"),
            std::string::npos);
  fs::remove_all(dir);
}

std::vector<std::string> lines_of(const fs::path& path) {
  std::istringstream in(slurp(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ObsSession, TracePathRecordsForTheSessionAndWritesOneTraceAtFlush) {
  const fs::path dir = make_temp_dir("apamm_session_trace_");
  const fs::path trace = dir / "trace.json";
  const std::uint64_t original_cap = obs::trace_capacity();
  obs::set_enabled(true);
  {
    obs::ObsSession session(trace.string(), /*metrics_path=*/"",
                            /*trace_cap_events=*/1024);
    EXPECT_EQ(session.telemetry(), nullptr);
    EXPECT_EQ(obs::trace_capacity(), obs::kCompiledIn ? 1024u : 0u);
    EXPECT_EQ(obs::tracing(), obs::kCompiledIn);
    { APA_TRACE_SCOPE("test.session_span"); }
    EXPECT_FALSE(fs::exists(trace)) << "trace written before flush";
    session.flush();
    EXPECT_FALSE(obs::tracing());
    ASSERT_TRUE(fs::exists(trace));
  }
  const std::string text = slurp(trace);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(text.find("\"test.session_span\"") != std::string::npos,
            obs::kCompiledIn)
      << text;
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  obs::set_trace_capacity(original_cap);
  obs::reset_trace();
  fs::remove_all(dir);
}

TEST(ObsSession, MetricsStreamEndsWithOneCountersRecord) {
  const fs::path dir = make_temp_dir("apamm_session_counters_");
  const fs::path metrics = dir / "metrics.jsonl";
  {
    obs::ObsSession session(/*trace_path=*/"", metrics.string());
    ASSERT_NE(session.telemetry(), nullptr);
    obs::JsonRecord record;
    record.set("type", "epoch");
    session.telemetry()->write(record);
    session.flush();
    session.flush();  // idempotent: the destructor flushes a third time
  }
  const std::vector<std::string> lines = lines_of(metrics);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("\"epoch\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\": \"counters\""), std::string::npos)
      << lines.back();
  std::size_t counters = 0;
  for (const std::string& line : lines) {
    if (line.find("\"type\": \"counters\"") != std::string::npos) ++counters;
  }
  EXPECT_EQ(counters, 1u);
  fs::remove_all(dir);
}

TEST(ObsSession, UnwritableTracePathKeepsTheMetricsStream) {
  const fs::path dir = make_temp_dir("apamm_session_badtrace_");
  const fs::path metrics = dir / "metrics.jsonl";
  {
    obs::ObsSession session((dir / "missing" / "trace.json").string(),
                            metrics.string());
    obs::JsonRecord record;
    record.set("marker", "kept");
    session.telemetry()->write(record);
  }
  EXPECT_FALSE(fs::exists(dir / "missing"));
  const std::vector<std::string> lines = lines_of(metrics);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines.front().find("kept"), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\": \"counters\""), std::string::npos);
  EXPECT_FALSE(obs::tracing());
  obs::reset_trace();
  fs::remove_all(dir);
}

}  // namespace
