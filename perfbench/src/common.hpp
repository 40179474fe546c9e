#pragma once

// Shared plumbing of the perfbench workloads: the command line, the result
// record (metrics, exact counts, output checks), the host fingerprint,
// order statistics, set-up timing and readers for the obs::prof profile.

#include <chrono>
#include <cstring>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sgnn/obs/prof.hpp"
#include "sgnn/obs/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The command line: --workload --seed --seconds --trace, plus
/// --scratch, a directory inside the checkout for files a run writes.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string scratch = ".bench_build/tmp";
};

/// Everything one run reports. `metrics` becomes the contract's result line;
/// the rest goes to the record line printed before it.
class Result {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  /// Exact, machine-independent count (repeats bit-for-bit for a seed):
  /// reported as a metric in unit "count" and kept in the record's counts.
  void count(const std::string& name, double value);
  void info(const std::string& key, double value);

  /// Records an output check; a failed check marks the run incorrect and
  /// counts one failed operation.
  void check(bool ok, const std::string& what);
  /// A run whose measurement conditions did not hold (the open-loop
  /// generator fell behind, the backlog grew). It reports no metrics.
  void invalidate(const std::string& why);

  void attempt(std::int64_t n) { attempted_ += n; }
  void fail(std::int64_t n) { failed_ += n; }

  bool correct() const { return failures_.empty() && invalid_.empty(); }

  /// The record line: workload, seed, fingerprint, info, counts, checks.
  std::string record_json(const Args& args,
                          const std::string& fingerprint) const;
  /// The contract line: correct, attempted, failed, metrics.
  std::string result_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> counts_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  std::vector<std::string> invalid_;
  std::int64_t checks_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::string json_number(double value);
std::string json_string(const std::string& text);

/// Host fingerprint as a JSON object: nproc, CPU model, ISA, kernel backend,
/// compute dtype and the pool threads the workload runs with. Timings are
/// only comparable between records with equal fingerprints.
std::string fingerprint_json(int pool_threads);

/// Order statistics by linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Runs `setup` `reps` times and returns the median wall seconds. The
/// workload keeps the state of the last repetition.
double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Telemetry receiver that stamps each step's completion on the steady
/// clock, so steady-state throughput can exclude the first step.
class StepClock final : public sgnn::obs::TelemetrySink {
 public:
  struct Step {
    sgnn::obs::StepTelemetry telemetry;
    Clock::time_point done;
  };
  void on_step(const sgnn::obs::StepTelemetry& step) override;
  std::vector<Step> steps() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Step> steps_;
};

/// Read access to one obs::prof report: region times by call-tree path and
/// kernel seconds by kernel class.
class ProfView {
 public:
  explicit ProfView(sgnn::obs::prof::Report report);

  /// Inclusive seconds and calls of the row at exactly `path`.
  double inclusive(const std::string& path) const;
  std::int64_t calls(const std::string& path) const;
  /// Sum of exclusive seconds over rows whose own name is `name`.
  double exclusive_named(const std::string& name) const;
  /// Calls, FLOPs, bytes and seconds summed over every kernel row.
  sgnn::obs::prof::Totals totals() const;
  /// Kernel rows (aggregated across call sites) selected by `pick`.
  double kernel_seconds(
      const std::function<bool(const std::string&)>& pick) const;
  std::int64_t kernel_flops(
      const std::function<bool(const std::string&)>& pick) const;
  /// Inclusive seconds of kernel rows under `prefix` whose name lacks the
  /// ".bwd" suffix: forward kernels that ran inside that region.
  double forward_kernels_under(const std::string& prefix) const;

  const sgnn::obs::prof::Report& report() const { return report_; }

 private:
  sgnn::obs::prof::Report report_;
  std::map<std::string, const sgnn::obs::prof::TreeRow*> by_path_;
};

/// Reports tensor.matmul_share and tensor.glue_share of kernel seconds and
/// tensor.matmul_gflops. Matmul counts forward and backward; glue is the
/// kernels the fused-Linear/RBF work targets (elementwise, reductions and
/// shape kernels; gathers, scatters, neighbor search, partitioning and halo
/// kernels are neither).
void report_kernel_mix(const ProfView& prof, Result& result);

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Profiler and tracing switches, restored to "off" on scope exit.
class TracedScope {
 public:
  TracedScope();
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;
};

/// Removes a directory tree the run created (no-op when absent).
void remove_tree(const std::string& path);

/// Mixes the workload seed with a per-purpose salt, so inputs drawn for
/// different purposes are independent.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

inline constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
