// Postmortem tooling: the minimal JSON reader, health_report's JSONL
// folding, and the rule_lint --bounds-json handshake the drift table reads
// catalog bounds through.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/rule_lint.h"
#include "obs/health_report.h"
#include "obs/json_min.h"

namespace apa::obstools {
namespace {

TEST(JsonMin, ParsesScalarsArraysAndOrderedObjects) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(
      R"({"a": 1, "b": [true, null, "x\u0041"], "c": -2.5e2, "d": "q\"e"})",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 4u);
  EXPECT_EQ(doc.object.front().first, "a");
  EXPECT_EQ(doc.object.back().first, "d");
  EXPECT_EQ(doc.get_int("a", -1), 1);
  EXPECT_DOUBLE_EQ(doc.get_num("c", 0.0), -250.0);
  EXPECT_EQ(doc.get_str("d", ""), "q\"e");
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_EQ(b->array[0].kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->array[2].str, "xA");  // A decodes to 'A'
}

TEST(JsonMin, RejectsMalformedInputWithAnOffset) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": }", &doc, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_json("{} trailing", &doc, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(parse_json("", &doc, &error));
}

TEST(JsonMin, ReadFileReportsMissingPaths) {
  std::string text, error;
  EXPECT_FALSE(read_file("/nonexistent_apamm_file.json", &text, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonMin, TypedAccessorsFallBackOnMissingKeysAndWrongKinds) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"n": 7, "s": "seven", "b": false, "z": null})",
                         &doc, &error))
      << error;
  EXPECT_EQ(doc.get_int("n", -1), 7);
  EXPECT_EQ(doc.get_int("s", -1), -1);
  EXPECT_EQ(doc.get_int("absent", -1), -1);
  EXPECT_DOUBLE_EQ(doc.get_num("z", 2.5), 2.5);
  EXPECT_EQ(doc.get_str("n", "fallback"), "fallback");
  EXPECT_EQ(doc.get_str("s", "fallback"), "seven");
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_FALSE(doc.find("b")->bool_or(true));
  EXPECT_TRUE(doc.find("n")->bool_or(true));
  // Member lookup on a non-object finds nothing.
  EXPECT_EQ(doc.find("n")->find("n"), nullptr);
  EXPECT_EQ(doc.find("n")->get_int("n", 3), 3);
}

const char kHealthJsonl[] =
    R"({"type": "health", "event": "sample", "algo": "bini322", "m": 300, "k": 784, "n": 300, "samples": 16, "ratio": 0.31, "ewma": 0.3, "slope": 0.01, "peak": 0.4, "bound": 0.000345, "drifting": false}
{"type": "epoch", "loss": 0.5}
{"type": "health", "event": "drift", "algo": "bini322", "m": 300, "k": 784, "n": 300, "samples": 20, "ratio": 0.8, "ewma": 0.55, "slope": 0.05, "peak": 0.8, "bound": 0.000345, "drifting": true}
{"type": "health", "event": "clear", "algo": "bini322", "m": 300, "k": 784, "n": 300, "samples": 30, "ratio": 0.1, "ewma": 0.4, "slope": -0.02, "peak": 0.8, "bound": 0.000345, "drifting": false}
{"type": "health", "event": "sample", "algo": "apa422", "m": 64, "k": 64, "n": 64, "samples": 16, "ratio": 0.7, "ewma": 0.6, "slope": 0.05, "peak": 0.7, "bound": 0.0001, "drifting": true}
this line is not json
)";

TEST(HealthReport, FoldsLatestRecordPerStreamAndCountsFlips) {
  int bad_lines = 0;
  const std::vector<HealthRow> rows =
      summarize_health(kHealthJsonl, &bad_lines);
  EXPECT_EQ(bad_lines, 1);
  ASSERT_EQ(rows.size(), 2u);  // sorted by (algo, m, k, n): apa422 first
  EXPECT_EQ(rows[0].algo, "apa422");
  EXPECT_TRUE(rows[0].drifting);
  EXPECT_EQ(rows[1].algo, "bini322");
  EXPECT_EQ(rows[1].samples, 30);
  EXPECT_DOUBLE_EQ(rows[1].ewma, 0.4);
  EXPECT_DOUBLE_EQ(rows[1].peak, 0.8);
  EXPECT_FALSE(rows[1].drifting);     // the newest record cleared
  EXPECT_TRUE(rows[1].ever_flagged);  // but the episode is remembered
  EXPECT_EQ(rows[1].drift_events, 1);
  EXPECT_TRUE(any_drifting(rows));    // apa422 is still flagged
}

TEST(HealthReport, RenderedTableShowsStatusAndSummary) {
  const std::vector<HealthRow> rows = summarize_health(kHealthJsonl, nullptr);
  RuleBounds bounds;
  bounds.precision_bits = 23;
  bounds.bound_1step["bini322"] = 3.45e-4;
  const std::string table = render_health_table(rows, bounds);
  EXPECT_NE(table.find("bini322"), std::string::npos);
  EXPECT_NE(table.find("DRIFT"), std::string::npos);      // apa422 row
  EXPECT_NE(table.find("recovered"), std::string::npos);  // bini322 row
  EXPECT_NE(table.find("catalog"), std::string::npos);    // bound annotation
  EXPECT_NE(table.find("2 stream(s)"), std::string::npos);
  EXPECT_NE(table.find("1 drifting"), std::string::npos);

  // No rows and no bounds still renders a parseable summary.
  const std::string empty = render_health_table({}, RuleBounds{});
  EXPECT_NE(empty.find("0 stream(s)"), std::string::npos);
  EXPECT_FALSE(any_drifting({}));
}

TEST(HealthReport, ConsumesRuleLintBoundsJson) {
  // S6 handshake end-to-end in process: rule_lint exports the catalog σ/φ
  // bounds, health_report parses them back.
  const std::string json = apa::lint::bounds_json();
  RuleBounds bounds;
  std::string error;
  ASSERT_TRUE(parse_rule_bounds(json, &bounds, &error)) << error;
  EXPECT_EQ(bounds.precision_bits, 23);
  ASSERT_TRUE(bounds.bound_1step.count("bini322"));
  // bini322's 1-step λ-optimal bound at 23 bits is ~3.4e-4 (Table 1).
  EXPECT_GT(bounds.bound_1step["bini322"], 1e-5);
  EXPECT_LT(bounds.bound_1step["bini322"], 1e-2);
  ASSERT_TRUE(bounds.bound_1step.count("strassen"));
  EXPECT_GT(bounds.bound_1step["strassen"], 0.0);
  // Every catalog rule made it across.
  EXPECT_EQ(bounds.bound_1step.size(), apa::lint::catalog_bounds().size());

  EXPECT_FALSE(parse_rule_bounds("[1, 2]", &bounds, &error));
  EXPECT_FALSE(parse_rule_bounds("junk", &bounds, &error));
}

}  // namespace
}  // namespace apa::obstools
