// Tests for tools/sgnn_bench_compare: JSON parsing, report extraction,
// and the regression verdicts the CI perf-smoke job relies on.

#include <string>

#include <gtest/gtest.h>

#include "compare.hpp"

namespace {

using namespace sgnn::bench_compare;

std::string report_json(double time_s, double items_per_s) {
  return "{\"schema\":\"sgnn.bench_report.v1\",\"name\":\"demo\","
         "\"values\":{"
         "\"step.time_s\":{\"value\":" +
         std::to_string(time_s) +
         ",\"better\":\"lower\"},"
         "\"step.items_per_s\":{\"value\":" +
         std::to_string(items_per_s) +
         ",\"better\":\"higher\"},"
         "\"model.params\":{\"value\":1024,\"better\":\"none\"}}}";
}

// -- JSON parser ------------------------------------------------------------

TEST(BenchCompareJson, ParsesScalarsArraysObjects) {
  const Json v = parse_json(
      " { \"a\" : [1, -2.5e3, true, false, null, \"s\\u0041\\n\"] } ");
  ASSERT_EQ(v.type, Json::Type::kObject);
  const auto& arr = v.object.at("a");
  ASSERT_EQ(arr.type, Json::Type::kArray);
  ASSERT_EQ(arr.array.size(), 6u);
  EXPECT_DOUBLE_EQ(arr.array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(arr.array[1].number, -2500.0);
  EXPECT_TRUE(arr.array[2].boolean);
  EXPECT_FALSE(arr.array[3].boolean);
  EXPECT_EQ(arr.array[4].type, Json::Type::kNull);
  EXPECT_EQ(arr.array[5].str, "sA\n");
}

TEST(BenchCompareJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json("{\"a\":}"), ParseError);
  EXPECT_THROW(parse_json("[1,]"), ParseError);
  EXPECT_THROW(parse_json("{} trailing"), ParseError);
  EXPECT_THROW(parse_json("\"unterminated"), ParseError);
  EXPECT_THROW(parse_json("1.2.3"), ParseError);
}

TEST(BenchCompareJson, RoundTripsOurOwnReports) {
  const Report r = parse_report(report_json(0.5, 100.0));
  EXPECT_EQ(r.name, "demo");
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_DOUBLE_EQ(r.values.at("step.time_s").value, 0.5);
  EXPECT_EQ(r.values.at("step.time_s").better, "lower");
  EXPECT_EQ(r.values.at("model.params").better, "none");
}

TEST(BenchCompareJson, RejectsWrongSchema) {
  EXPECT_THROW(parse_report("{\"values\":{}}"), ParseError);
  EXPECT_THROW(
      parse_report("{\"schema\":\"sgnn.bench_report.v99\",\"values\":{}}"),
      ParseError);
  EXPECT_THROW(parse_report("{\"schema\":\"sgnn.bench_report.v1\"}"),
               ParseError);
}

// -- comparison verdicts ----------------------------------------------------

TEST(BenchCompare, NoChangeIsClean) {
  const Report base = parse_report(report_json(0.5, 100.0));
  const CompareResult result = compare(base, base, 0.10);
  EXPECT_FALSE(result.has_regression);
  ASSERT_EQ(result.deltas.size(), 3u);
  for (const auto& d : result.deltas) {
    EXPECT_FALSE(d.regression);
    EXPECT_DOUBLE_EQ(d.rel_change, 0.0);
  }
}

TEST(BenchCompare, SlowdownBeyondThresholdIsRegression) {
  const Report base = parse_report(report_json(0.5, 100.0));
  const Report cur = parse_report(report_json(0.5 * 1.5, 100.0));
  const CompareResult result = compare(base, cur, 0.10);
  EXPECT_TRUE(result.has_regression);
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.regression, d.key == "step.time_s") << d.key;
  }
}

TEST(BenchCompare, ThroughputDropIsRegressionHigherIsBetter) {
  const Report base = parse_report(report_json(0.5, 100.0));
  const Report cur = parse_report(report_json(0.5, 80.0));
  const CompareResult result = compare(base, cur, 0.10);
  EXPECT_TRUE(result.has_regression);
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.regression, d.key == "step.items_per_s") << d.key;
  }
}

TEST(BenchCompare, ImprovementAndNoneNeverRegress) {
  const Report base = parse_report(report_json(0.5, 100.0));
  // Faster, higher throughput — and `none` moved a lot.
  Report cur = parse_report(report_json(0.25, 200.0));
  cur.values.at("model.params").value = 999999;
  const CompareResult result = compare(base, cur, 0.10);
  EXPECT_FALSE(result.has_regression);
  for (const auto& d : result.deltas) {
    EXPECT_FALSE(d.regression) << d.key;
    if (d.key != "model.params") {
      EXPECT_TRUE(d.improvement) << d.key;
    }
  }
}

TEST(BenchCompare, WithinThresholdIsClean) {
  const Report base = parse_report(report_json(0.5, 100.0));
  const Report cur = parse_report(report_json(0.5 * 1.09, 100.0 * 0.92));
  EXPECT_FALSE(compare(base, cur, 0.10).has_regression);
  // The same drift fails a tighter gate.
  EXPECT_TRUE(compare(base, cur, 0.05).has_regression);
}

TEST(BenchCompare, DisjointKeysAreReportedNotFailed) {
  Report base = parse_report(report_json(0.5, 100.0));
  Report cur = parse_report(report_json(0.5, 100.0));
  base.values.insert_or_assign("old.metric", Value{1.0, "lower"});
  cur.values.insert_or_assign("new.metric", Value{1.0, "lower"});
  const CompareResult result = compare(base, cur, 0.10);
  EXPECT_FALSE(result.has_regression);
  ASSERT_EQ(result.only_baseline.size(), 1u);
  EXPECT_EQ(result.only_baseline[0], "old.metric");
  ASSERT_EQ(result.only_current.size(), 1u);
  EXPECT_EQ(result.only_current[0], "new.metric");
}

TEST(BenchCompare, ZeroBaselineDoesNotDivideByZero) {
  Report base = parse_report(report_json(0.5, 100.0));
  Report cur = parse_report(report_json(0.5, 100.0));
  base.values.insert_or_assign("z", Value{0.0, "lower"});
  cur.values.insert_or_assign("z", Value{1.0, "lower"});
  const CompareResult result = compare(base, cur, 0.10);
  EXPECT_TRUE(result.has_regression);  // 0 -> 1 with lower-is-better
}

// -- exact (deterministic-count) metrics --------------------------------------

TEST(BenchCompare, ExactMetricThatMovedFailsEvenUnderWarnOnly) {
  Report base = parse_report(report_json(0.5, 100.0));
  Report cur = parse_report(report_json(0.5, 100.0));
  base.values.insert_or_assign("halo_bytes_per_step",
                               Value{3023896.0, "exact"});
  // One byte less is still a change: an exact count has no threshold and
  // no good direction.
  cur.values.insert_or_assign("halo_bytes_per_step",
                              Value{3023895.0, "exact"});
  const CompareResult result = compare(base, cur, 0.25);
  EXPECT_TRUE(result.has_exact_change);
  EXPECT_TRUE(result.has_regression);
  for (const auto& d : result.deltas) {
    EXPECT_EQ(d.exact_change, d.key == "halo_bytes_per_step") << d.key;
  }
  EXPECT_EQ(exit_code(result, /*warn_only=*/true), 1);
  EXPECT_EQ(exit_code(result, /*warn_only=*/false), 1);
}

TEST(BenchCompare, UnchangedExactMetricPassesAndTimingStaysAdvisory) {
  Report base = parse_report(report_json(0.5, 100.0));
  Report cur = parse_report(report_json(0.5 * 1.5, 100.0));  // slow timing
  base.values.insert_or_assign("halo_exchanges_per_step", Value{63.0, "exact"});
  cur.values.insert_or_assign("halo_exchanges_per_step", Value{63.0, "exact"});
  const CompareResult result = compare(base, cur, 0.25);
  EXPECT_FALSE(result.has_exact_change);
  EXPECT_TRUE(result.has_regression);  // the timing regressed
  EXPECT_EQ(exit_code(result, /*warn_only=*/true), 0);
  EXPECT_EQ(exit_code(result, /*warn_only=*/false), 1);
  EXPECT_EQ(exit_code(compare(base, base, 0.25), /*warn_only=*/false), 0);
}

}  // namespace
