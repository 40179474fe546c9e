#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sgnn/obs/trace.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/error.hpp"

namespace perfbench {

namespace {

std::string join_pairs(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "{";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(pairs[i].first) + ":" + pairs[i].second;
  }
  return out + "}";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::copy_n(reinterpret_cast<const char*>(regs), 16, brand + 16 * leaf);
    }
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string isa() {
#if defined(__x86_64__) || defined(__i386__)
  std::string out = "x86_64";
  if (__builtin_cpu_supports("avx2")) out += "+avx2";
  if (__builtin_cpu_supports("fma")) out += "+fma";
  if (__builtin_cpu_supports("avx512f")) out += "+avx512f";
  return out;
#elif defined(__aarch64__)
  return "aarch64+neon";
#else
  return "generic";
#endif
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::count(const std::string& name, double value) {
  metric(name, value, "count");
  counts_.emplace_back(name, value);
}

void Result::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  failures_.push_back(what);
  ++failed_;
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
}

void Result::invalidate(const std::string& why) {
  if (std::find(invalid_.begin(), invalid_.end(), why) != invalid_.end()) {
    return;
  }
  invalid_.push_back(why);
  std::fprintf(stderr, "[perfbench] RUN INVALID: %s\n", why.c_str());
}

std::string Result::record_json(const Args& args,
                                const std::string& fingerprint) const {
  std::vector<std::pair<std::string, std::string>> counts;
  for (const auto& [name, value] : counts_) {
    counts.emplace_back(name, json_number(value));
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    failures += (i > 0 ? "," : "") + json_string(failures_[i]);
  }
  failures += "]";
  std::string invalid = "[";
  for (std::size_t i = 0; i < invalid_.size(); ++i) {
    invalid += (i > 0 ? "," : "") + json_string(invalid_[i]);
  }
  invalid += "]";
  std::vector<std::pair<std::string, std::string>> record = {
      {"workload", json_string(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"seconds", json_number(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"fingerprint", fingerprint},
      {"info", join_pairs(info_)},
      {"counts", join_pairs(counts)},
      {"checks", std::to_string(checks_)},
      {"check_failures", failures},
      {"invalid", invalid},
      {"attempted", std::to_string(attempted_)},
      {"succeeded", std::to_string(attempted_ - failed_)},
      {"failed", std::to_string(failed_)},
  };
  return "{\"record\":" + join_pairs(record) + "}";
}

std::string Result::result_json() const {
  std::vector<std::pair<std::string, std::string>> metrics;
  if (invalid_.empty()) {
    for (const Metric& m : metrics_) {
      metrics.emplace_back(m.name, "{\"value\":" + json_number(m.value) +
                                       ",\"unit\":" + json_string(m.unit) +
                                       "}");
    }
  }
  return "{\"correct\":" + std::string(correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(std::max<std::int64_t>(1, attempted_)) +
         ",\"failed\":" + std::to_string(failed_) +
         ",\"metrics\":" + join_pairs(metrics) + "}";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string fingerprint_json(int pool_threads) {
  namespace k = sgnn::kernels;
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", json_string(cpu_model())},
      {"isa", json_string(isa())},
      {"kernel_backend", json_string(k::backend_name(k::active_backend()))},
      {"compute_dtype",
       json_string(k::dtype_name(k::active_compute_dtype()))},
      {"pool_threads", std::to_string(pool_threads)},
  };
  return join_pairs(fields);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point begin = Clock::now();
    setup();
    seconds.push_back(seconds_between(begin, Clock::now()));
  }
  return median(seconds);
}

void StepClock::on_step(const sgnn::obs::StepTelemetry& step) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  steps_.push_back({step, now});
}

std::vector<StepClock::Step> StepClock::steps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return steps_;
}

ProfView::ProfView(sgnn::obs::prof::Report report)
    : report_(std::move(report)) {
  for (const auto& row : report_.tree) by_path_[row.path] = &row;
}

double ProfView::inclusive(const std::string& path) const {
  const auto it = by_path_.find(path);
  return it == by_path_.end() ? 0.0 : it->second->inclusive_seconds;
}

std::int64_t ProfView::calls(const std::string& path) const {
  const auto it = by_path_.find(path);
  return it == by_path_.end() ? 0 : it->second->calls;
}

double ProfView::exclusive_named(const std::string& name) const {
  double total = 0;
  for (const auto& row : report_.tree) {
    if (row.name == name) total += row.exclusive_seconds;
  }
  return total;
}

sgnn::obs::prof::Totals ProfView::totals() const {
  sgnn::obs::prof::Totals t;
  for (const auto& k : report_.kernels) {
    t.kernel_calls += k.calls;
    t.flops += k.flops;
    t.bytes += k.bytes;
    t.kernel_seconds += k.seconds;
  }
  return t;
}

double ProfView::kernel_seconds(
    const std::function<bool(const std::string&)>& pick) const {
  double total = 0;
  for (const auto& k : report_.kernels) {
    if (pick(k.name)) total += k.seconds;
  }
  return total;
}

std::int64_t ProfView::kernel_flops(
    const std::function<bool(const std::string&)>& pick) const {
  std::int64_t total = 0;
  for (const auto& k : report_.kernels) {
    if (pick(k.name)) total += k.flops;
  }
  return total;
}

double ProfView::forward_kernels_under(const std::string& prefix) const {
  const std::string head = prefix + ";";
  std::map<std::string, bool> kernel_names;
  for (const auto& k : report_.kernels) kernel_names[k.name] = true;
  double total = 0;
  for (const auto& row : report_.tree) {
    if (row.path.compare(0, head.size(), head) != 0) continue;
    if (kernel_names.count(row.name) == 0) continue;
    const bool backward = row.name.size() > 4 &&
                          row.name.compare(row.name.size() - 4, 4, ".bwd") == 0;
    if (!backward) total += row.inclusive_seconds;
  }
  return total;
}

void report_kernel_mix(const ProfView& prof, Result& result) {
  const auto is_matmul = [](const std::string& name) {
    return name.rfind("matmul", 0) == 0;
  };
  const auto is_glue = [](const std::string& name) {
    for (const char* prefix : {"matmul", "index_select", "scatter_add",
                               "neighbor_search", "partition",
                               "spatial_order", "halo_"}) {
      if (name.rfind(prefix, 0) == 0) return false;
    }
    return true;
  };
  const double kernel_s = prof.totals().kernel_seconds;
  const double matmul_s = prof.kernel_seconds(is_matmul);
  result.metric("tensor.matmul_share", matmul_s / kernel_s, "frac");
  result.metric("tensor.glue_share", prof.kernel_seconds(is_glue) / kernel_s,
                "frac");
  result.metric("tensor.matmul_gflops",
                static_cast<double>(prof.kernel_flops(is_matmul)) / matmul_s *
                    1e-9,
                "GFLOP/s");
}

TracedScope::TracedScope() {
  sgnn::obs::prof::reset();
  sgnn::obs::TraceRecorder::instance().clear();
  sgnn::obs::prof::enable();
  sgnn::obs::TraceRecorder::instance().enable();
}

TracedScope::~TracedScope() {
  sgnn::obs::prof::disable();
  sgnn::obs::TraceRecorder::instance().disable();
}

void remove_tree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
