#pragma once

// Structured, machine-readable bench output: every bench binary builds one
// BenchReport and writes BENCH_<name>.json next to its ASCII tables. The
// report embeds the metrics snapshot (step-time quantiles, peak memory,
// comm exposed/overlapped seconds), the kernel profile with roofline
// utilization, and the machine calibration, so two runs can be diffed by
// tools/sgnn_bench_compare without re-parsing ASCII.

#include <map>
#include <string>
#include <vector>

#include "sgnn/util/table.hpp"

namespace sgnn::bench {

/// Directory JSON/CSV bench artifacts go to: $SGNN_BENCH_OUT_DIR when set
/// (must already exist), else the current working directory.
std::string bench_out_dir();

/// Joins bench_out_dir() with `filename`.
std::string bench_out_path(const std::string& filename);

class BenchReport {
 public:
  /// Which direction of change sgnn_bench_compare treats as a regression.
  /// kExact marks a deterministic count: any change at all fails the
  /// compare, even under --warn-only.
  enum class Better { kLower, kHigher, kNone, kExact };

  /// Creating the report also enables (and resets) the kernel profiler, so
  /// everything the bench runs afterwards is attributed in the profile
  /// section. `name` becomes the BENCH_<name>.json stem.
  explicit BenchReport(std::string name);

  /// Headline comparable scalars (throughput, step p99, peak bytes, ...).
  /// `better` travels with the value so the compare tool knows the sign.
  void add_value(const std::string& key, double value, Better better);
  /// Free-form context (grid shape, flags); not compared.
  void add_info(const std::string& key, const std::string& value);
  void add_info(const std::string& key, double value);
  /// Embeds an ASCII table cell-for-cell under "tables".
  void add_table(const std::string& key, const Table& table);

  const std::string& name() const { return name_; }

  /// Serializes the report, capturing the metrics snapshot, the kernel
  /// profile, and the machine calibration at call time.
  std::string to_json() const;

  /// Writes BENCH_<name>.json into bench_out_dir(). Returns the path, or ""
  /// after printing the strerror(errno) diagnostics on failure.
  std::string write() const;

 private:
  struct Value {
    double value = 0;
    Better better = Better::kNone;
  };

  std::string name_;
  std::map<std::string, Value> values_;
  std::map<std::string, std::string> info_;
  std::map<std::string, Table> tables_;
};

}  // namespace sgnn::bench
