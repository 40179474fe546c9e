#pragma once

// sgnn_bench_compare — diff two BENCH_<name>.json reports (the
// `sgnn.bench_report.v1` schema written by bench/bench_report.hpp) and
// flag metric regressions.
//
// Only the `values` section participates in the comparison: each entry
// carries its own improvement direction ("lower" / "higher" / "none" /
// "exact"), so the tool needs no per-metric configuration. A key is a
// REGRESSION when its relative change moves against the stored direction
// by more than the threshold. An "exact" key is a deterministic count:
// any change at all, in either direction, is an EXACT CHANGE, which fails
// the compare even when timing regressions are only advisory. Keys present
// in only one report are listed but never fail the comparison (benches
// gain and lose metrics over time).
//
// Split into this core library (linked by tests/bench_compare_test) and
// the CLI in main.cpp that the CI perf-smoke job runs.

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace sgnn::bench_compare {

/// Thrown for malformed JSON or a report that does not match the
/// `sgnn.bench_report.v1` schema. The CLI maps it to exit code 2.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Minimal JSON document — just enough structure to walk a bench report.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;
};

/// Parses a complete JSON value; throws ParseError with a byte offset on
/// malformed input or trailing garbage.
Json parse_json(const std::string& text);

/// One entry of a report's `values` section.
struct Value {
  double value = 0;
  std::string better;  ///< "lower", "higher", "none" or "exact"
};

/// The comparable slice of a BENCH_<name>.json report.
struct Report {
  std::string name;
  std::map<std::string, Value> values;
};

/// Extracts the Report from parsed JSON; throws ParseError when the
/// schema tag is missing/unknown or `values` is malformed.
Report report_from_json(const Json& root);

/// Convenience: parse_json + report_from_json.
Report parse_report(const std::string& text);

/// Verdict for one key present in both reports.
struct Delta {
  std::string key;
  double baseline = 0;
  double current = 0;
  double rel_change = 0;  ///< (current - baseline) / |baseline|
  std::string better;
  bool regression = false;
  bool improvement = false;
  bool exact_change = false;  ///< an "exact" metric moved (also a regression)
};

struct CompareResult {
  std::vector<Delta> deltas;                ///< keys in both, sorted
  std::vector<std::string> only_baseline;   ///< keys missing from current
  std::vector<std::string> only_current;    ///< keys missing from baseline
  bool has_regression = false;
  bool has_exact_change = false;
};

/// Compares every key present in both reports. `threshold` is the
/// relative change (e.g. 0.10 = 10%) beyond which a move against the
/// metric's `better` direction counts as a regression.
CompareResult compare(const Report& baseline, const Report& current,
                      double threshold);

/// The CLI's exit status for a comparison: 1 when an exact metric changed
/// (always) or when a metric regressed and `warn_only` is off, else 0.
int exit_code(const CompareResult& result, bool warn_only);

}  // namespace sgnn::bench_compare
