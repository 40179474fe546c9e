#include "bench_report.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sgnn/obs/metrics.hpp"
#include "sgnn/obs/prof.hpp"
#include "sgnn/tensor/kernels.hpp"
#include "sgnn/util/parse.hpp"
#include "sgnn/util/thread_pool.hpp"

namespace sgnn::bench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double value) { return util::format_double(value); }

const char* better_label(BenchReport::Better better) {
  switch (better) {
    case BenchReport::Better::kLower: return "lower";
    case BenchReport::Better::kHigher: return "higher";
    case BenchReport::Better::kNone: return "none";
    case BenchReport::Better::kExact: return "exact";
  }
  return "none";
}

}  // namespace

std::string bench_out_dir() {
  if (const char* env = std::getenv("SGNN_BENCH_OUT_DIR")) {
    if (env[0] != '\0') return env;
  }
  return {};
}

std::string bench_out_path(const std::string& filename) {
  const std::string dir = bench_out_dir();
  if (dir.empty()) return filename;
  if (dir.back() == '/') return dir + filename;
  return dir + "/" + filename;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  obs::prof::reset();
  obs::prof::enable();
  if (const char* env = std::getenv("SGNN_BENCH_SCALE")) {
    add_info("bench_scale", env);
  } else {
    add_info("bench_scale", "1");
  }
  add_info("threads", static_cast<double>(ThreadPool::instance().size()));
  // Reports from different kernel backends / compute dtypes are not
  // comparable; record both so bench_compare and readers can tell.
  add_info("kernel_backend", kernels::backend_name(kernels::active_backend()));
  add_info("compute_dtype",
           kernels::dtype_name(kernels::active_compute_dtype()));
}

void BenchReport::add_value(const std::string& key, double value,
                            Better better) {
  values_[key] = Value{value, better};
}

void BenchReport::add_info(const std::string& key, const std::string& value) {
  info_[key] = "\"" + json_escape(value) + "\"";
}

void BenchReport::add_info(const std::string& key, double value) {
  info_[key] = format_double(value);
}

void BenchReport::add_table(const std::string& key, const Table& table) {
  tables_.insert_or_assign(key, table);
}

std::string BenchReport::to_json() const {
  std::string out = "{";
  out += "\"schema\":\"sgnn.bench_report.v1\"";
  out += ",\"name\":\"" + json_escape(name_) + "\"";

  out += ",\"values\":{";
  bool first = true;
  for (const auto& [key, value] : values_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":{\"value\":" +
           format_double(value.value) + ",\"better\":\"" +
           better_label(value.better) + "\"}";
  }
  out += "}";

  out += ",\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":" + value;
  }
  out += "}";

  out += ",\"metrics\":" + obs::MetricsRegistry::instance().snapshot().to_json();
  out += ",\"profile\":" + obs::prof::report().to_json();

  out += ",\"tables\":{";
  first = true;
  for (const auto& [key, table] : tables_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":{\"headers\":[";
    bool first_cell = true;
    for (const auto& header : table.headers()) {
      if (!first_cell) out += ",";
      first_cell = false;
      out += "\"" + json_escape(header) + "\"";
    }
    out += "],\"rows\":[";
    bool first_row = true;
    for (const auto& row : table.cells()) {
      if (!first_row) out += ",";
      first_row = false;
      out += "[";
      first_cell = true;
      for (const auto& cell : row) {
        if (!first_cell) out += ",";
        first_cell = false;
        out += "\"" + json_escape(cell) + "\"";
      }
      out += "]";
    }
    out += "]}";
  }
  out += "}";

  out += "}";
  return out;
}

std::string BenchReport::write() const {
  const std::string path = bench_out_path("BENCH_" + name_ + ".json");
  errno = 0;
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "[bench] could not write " << path << ": "
              << std::strerror(errno) << "\n";
    return {};
  }
  out << to_json() << "\n";
  out.close();
  if (out.fail()) {
    std::cerr << "[bench] write to " << path << " failed: "
              << std::strerror(errno) << "\n";
    return {};
  }
  std::cerr << "[bench] wrote " << path << "\n";
  return path;
}

}  // namespace sgnn::bench
