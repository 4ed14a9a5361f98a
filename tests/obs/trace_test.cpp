// Tracing layer: span accumulation, per-thread ring recording under OpenMP,
// nesting discipline of the recorded events, phase deltas, and Chrome-trace
// export shape. Every test that depends on spans actually recording skips in
// APAMM_OBS=OFF builds (where the suite's job is just to compile).

#include <gtest/gtest.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_export.h"

namespace {

using namespace apa;

/// Minimal structural JSON check: every brace/bracket closes in order and
/// quotes pair up (with \" escapes honored). Catches the classes of export
/// bugs a renderer would hit — trailing commas excepted, which the shape
/// checks below cover by parsing event fields directly.
bool balanced_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_tracing(true);
    obs::reset_trace();
    obs::reset_phases();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::reset_trace();
    obs::reset_phases();
  }
};

std::uint64_t total_for(const std::vector<obs::PhaseTotal>& totals,
                        const std::string& name) {
  for (const auto& t : totals) {
    if (t.name == name) return t.count;
  }
  return 0;
}

TEST_F(TraceTest, SpansAccumulatePhaseTotals) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  for (int i = 0; i < 5; ++i) {
    APA_TRACE_SCOPE("test.outer");
    APA_TRACE_SCOPE("test.inner");
  }
  const auto totals = obs::phase_totals();
  EXPECT_EQ(total_for(totals, "test.outer"), 5u);
  EXPECT_EQ(total_for(totals, "test.inner"), 5u);
  // Sorted by name, as documented.
  EXPECT_TRUE(std::is_sorted(totals.begin(), totals.end(),
                             [](const auto& a, const auto& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(TraceTest, PhaseDeltaSubtractsAndDropsZeroEntries) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  { APA_TRACE_SCOPE("test.delta_base"); }
  const auto before = obs::phase_totals();
  for (int i = 0; i < 3; ++i) {
    APA_TRACE_SCOPE("test.delta_hot");
  }
  const auto delta = obs::phase_delta(obs::phase_totals(), before);
  EXPECT_EQ(total_for(delta, "test.delta_hot"), 3u);
  // test.delta_base did not advance, so the delta must not mention it.
  for (const auto& t : delta) EXPECT_NE(t.name, "test.delta_base");
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  obs::set_enabled(false);
  { APA_TRACE_SCOPE("test.dormant"); }
  obs::set_enabled(true);
  EXPECT_EQ(total_for(obs::phase_totals(), "test.dormant"), 0u);
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST_F(TraceTest, RecordsNestedSpansAcrossFourOmpThreads) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  constexpr int kThreads = 4;
  constexpr int kRepsPerThread = 8;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(kThreads)
  {
    for (int r = 0; r < kRepsPerThread; ++r) {
      APA_TRACE_SCOPE("test.mt_outer");
      {
        APA_TRACE_SCOPE_ID("test.mt_inner", r);
      }
    }
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(obs::trace_dropped(), 0u);

  // Every thread contributed its full complement of both span names.
  std::vector<int> tids;
  for (const auto& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
      tids.push_back(e.tid);
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
  std::size_t outer = 0, inner = 0;
  for (const auto& e : events) {
    if (e.name == "test.mt_outer") ++outer;
    if (e.name == "test.mt_inner") {
      ++inner;
      EXPECT_GE(e.id, 0);
      EXPECT_LT(e.id, kRepsPerThread);
    }
  }
  EXPECT_EQ(outer, static_cast<std::size_t>(kThreads * kRepsPerThread));
  EXPECT_EQ(inner, static_cast<std::size_t>(kThreads * kRepsPerThread));

  // Nesting discipline per thread: events arrive ordered by (tid, start); a
  // stack replay must find every span either disjoint from or fully inside
  // the enclosing one — partial overlap means the ring interleaved scopes.
  for (const int tid : tids) {
    std::vector<const obs::TraceEventView*> stack;
    for (const auto& e : events) {
      if (e.tid != tid) continue;
      while (!stack.empty() &&
             stack.back()->start_ns + stack.back()->dur_ns <= e.start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(e.start_ns + e.dur_ns,
                  stack.back()->start_ns + stack.back()->dur_ns)
            << "span " << e.name << " partially overlaps " << stack.back()->name;
      }
      stack.push_back(&e);
    }
  }
}

TEST_F(TraceTest, ChromeTraceExportIsBalancedJsonWithAllEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  omp_set_dynamic(0);
#pragma omp parallel num_threads(4)
  {
    for (int r = 0; r < 4; ++r) {
      APA_TRACE_SCOPE("test.export_outer");
      APA_TRACE_SCOPE("test.export_inner");
    }
  }
  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(balanced_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export_inner\""), std::string::npos);
  // One "X" duration event per recorded span (metadata events are "M").
  std::size_t duration_events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++duration_events;
  }
  EXPECT_EQ(duration_events, obs::trace_events().size());
}

TEST_F(TraceTest, ChromeTraceNamesTracksByDeclaredRank) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  { APA_TRACE_SCOPE("test.unranked"); }
  std::thread worker([] {
    obs::set_thread_rank(3);
    APA_TRACE_SCOPE("test.ranked");
  });
  worker.join();
  int unranked_tid = -1;
  for (const obs::TraceEventView& ev : obs::trace_events()) {
    if (ev.name == "test.unranked") unranked_tid = ev.tid;
  }
  ASSERT_GE(unranked_tid, 0);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"args\": {\"name\": \"rank 3\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"name\": \"thread " +
                      std::to_string(unranked_tid) + "\"}"),
            std::string::npos)
      << json.substr(0, 600);
}

TEST_F(TraceTest, DeclaredRankIsPerThreadAndTagsItsEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  const int main_rank = obs::thread_rank();
  int worker_rank = -2;
  std::thread worker([&worker_rank] {
    obs::set_thread_rank(5);
    worker_rank = obs::thread_rank();
    APA_TRACE_SCOPE("test.rank_tagged");
  });
  worker.join();
  EXPECT_EQ(worker_rank, 5);
  EXPECT_EQ(obs::thread_rank(), main_rank) << "a worker's rank leaked";
  int fresh_rank = -2;
  std::thread fresh([&fresh_rank] {
    fresh_rank = obs::thread_rank();
    APA_TRACE_SCOPE("test.rank_untagged");
  });
  fresh.join();
  EXPECT_EQ(fresh_rank, -1);
  int tagged = 0;
  int untagged = 0;
  for (const obs::TraceEventView& ev : obs::trace_events()) {
    if (ev.name == "test.rank_tagged") {
      EXPECT_EQ(ev.rank, 5);
      ++tagged;
    } else if (ev.name == "test.rank_untagged") {
      EXPECT_EQ(ev.rank, -1);
      ++untagged;
    }
  }
  EXPECT_EQ(tagged, 1);
  EXPECT_EQ(untagged, 1);
}

TEST_F(TraceTest, ChromeTraceEmitsIdMatchedFlowHalves) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  std::thread sender([] {
    obs::set_thread_rank(0);
    APA_TRACE_SCOPE("test.send");
    APA_TRACE_FLOW_OUT("test.flow", 4242);
  });
  sender.join();
  std::thread receiver([] {
    obs::set_thread_rank(1);
    APA_TRACE_SCOPE("test.recv");
    APA_TRACE_FLOW_IN("test.flow", 4242);
  });
  receiver.join();
  int flow_out = 0;
  int flow_in = 0;
  for (const obs::TraceEventView& ev : obs::trace_events()) {
    if (ev.kind == obs::TraceEventKind::kFlowOut) {
      EXPECT_EQ(ev.id, 4242);
      EXPECT_EQ(ev.rank, 0);
      ++flow_out;
    } else if (ev.kind == obs::TraceEventKind::kFlowIn) {
      EXPECT_EQ(ev.id, 4242);
      EXPECT_EQ(ev.rank, 1);
      ++flow_in;
    }
  }
  EXPECT_EQ(flow_out, 1);
  EXPECT_EQ(flow_in, 1);
  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(balanced_json(json));
  // The "s" half leaves the sender; the "f" half binds to the receiver's
  // enclosing slice (bp=e). Both carry the shared id.
  EXPECT_NE(json.find("\"ph\": \"s\", \"id\": 4242"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\": \"f\", \"bp\": \"e\", \"id\": 4242"),
            std::string::npos)
      << json;
  // Flow halves are not duration slices.
  std::size_t duration_events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++duration_events;
  }
  EXPECT_EQ(duration_events, 2u);
}

TEST_F(TraceTest, FlowEventsRecordNothingWhileTracingIsOff) {
  obs::set_tracing(false);
  APA_TRACE_FLOW_OUT("test.flow_off", 7);
  APA_TRACE_FLOW_IN("test.flow_off", 7);
  EXPECT_TRUE(obs::trace_events().empty());
  const std::string json = obs::chrome_trace_json();
  EXPECT_EQ(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST_F(TraceTest, ChromeTraceRebasesTimestampsToTheEarliestEvent) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  for (int i = 0; i < 3; ++i) {
    APA_TRACE_SCOPE("test.rebased");
  }
  const std::string json = obs::chrome_trace_json();
  std::vector<double> ts;
  const std::string key = "\"ts\": ";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    ts.push_back(std::stod(json.substr(pos + key.size())));
  }
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(*std::min_element(ts.begin(), ts.end()), 0.0);
  for (const double t : ts) EXPECT_GE(t, 0.0);
}

TEST_F(TraceTest, ChromeTraceCarriesScopeIdsAsArgs) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  { APA_TRACE_SCOPE_ID("test.with_id", 17); }
  { APA_TRACE_SCOPE("test.without_id"); }
  const std::string json = obs::chrome_trace_json();
  const std::size_t with_id = json.find("\"test.with_id\"");
  const std::size_t without_id = json.find("\"test.without_id\"");
  ASSERT_NE(with_id, std::string::npos);
  ASSERT_NE(without_id, std::string::npos);
  const std::string with_line =
      json.substr(with_id, json.find('\n', with_id) - with_id);
  const std::string without_line =
      json.substr(without_id, json.find('\n', without_id) - without_id);
  EXPECT_NE(with_line.find("\"args\": {\"id\": 17}"), std::string::npos)
      << with_line;
  EXPECT_EQ(without_line.find("\"args\""), std::string::npos) << without_line;
}

TEST_F(TraceTest, WriteChromeTraceWritesTheExportedDocument) {
  { APA_TRACE_SCOPE("test.written"); }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("apamm_trace_write_" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(obs::write_chrome_trace(path.string()));
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), obs::chrome_trace_json());
  std::filesystem::remove(path);
}

TEST_F(TraceTest, WriteChromeTraceEmptyPathIsANoOpSuccess) {
  EXPECT_TRUE(obs::write_chrome_trace(""));
}

TEST_F(TraceTest, WriteChromeTraceFailsIntoAMissingDirectory) {
  EXPECT_FALSE(
      obs::write_chrome_trace("/nonexistent_apamm_dir/sub/trace.json"));
}

TEST_F(TraceTest, EmptyRecordingStillExportsValidDocument) {
  obs::reset_trace();
  const std::string json = obs::chrome_trace_json();
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TraceTest, TraceCapBoundsRingRetention) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  const std::uint64_t original = obs::trace_capacity();
  obs::set_trace_capacity(16);
  EXPECT_EQ(obs::trace_capacity(), 16u);
  for (int i = 0; i < 50; ++i) {
    APA_TRACE_SCOPE_ID("test.capped", i);
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(obs::trace_dropped(), 34u);
  // Oldest-first drop: only the newest 16 spans survive, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "test.capped");
    EXPECT_EQ(events[i].id, static_cast<std::int64_t>(34 + i));
  }
  obs::set_trace_capacity(original);
}

TEST_F(TraceTest, TraceCapClampsToOneAndResizeEmptiesRings) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  const std::uint64_t original = obs::trace_capacity();
  { APA_TRACE_SCOPE("test.pre_resize"); }
  ASSERT_FALSE(obs::trace_events().empty());
  obs::set_trace_capacity(0);  // clamps to 1
  EXPECT_EQ(obs::trace_capacity(), 1u);
  // The resize empties every ring (quiescent contract), so nothing survives.
  EXPECT_TRUE(obs::trace_events().empty());
  { APA_TRACE_SCOPE("test.post_resize"); }
  EXPECT_EQ(obs::trace_events().size(), 1u);
  obs::set_trace_capacity(original);
}

TEST_F(TraceTest, ResetTraceDiscardsEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "APAMM_OBS=OFF";
  { APA_TRACE_SCOPE("test.resettable"); }
  ASSERT_FALSE(obs::trace_events().empty());
  obs::reset_trace();
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

}  // namespace
