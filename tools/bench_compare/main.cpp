// sgnn_bench_compare CLI:
//   sgnn_bench_compare <baseline.json> <current.json>
//                      [--threshold <frac>] [--warn-only]
//
// Prints one line per metric present in both reports and a summary.
// Exit codes: 0 = no regression (or --warn-only), 1 = an exact metric
// changed (even under --warn-only), or at least one metric moved against
// its `better` direction by more than the threshold, 2 = usage / file /
// parse error. Run by the CI perf-smoke job against the committed
// baselines in bench/baselines/.

#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "compare.hpp"
#include "sgnn/util/parse.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw sgnn::bench_compare::ParseError("cannot open '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string percent(double rel) {
  std::ostringstream out;
  out << std::showpos << std::fixed << std::setprecision(1) << 100.0 * rel
      << "%";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double threshold = 0.10;
  bool warn_only = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      ++i;
      std::size_t consumed = 0;
      if (!sgnn::util::parse_double(argv[i], threshold, &consumed) ||
          consumed != std::strlen(argv[i]) || threshold < 0) {
        std::cerr << "sgnn_bench_compare: bad --threshold '" << argv[i]
                  << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--warn-only") == 0) {
      warn_only = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: sgnn_bench_compare <baseline.json> <current.json>"
                   " [--threshold <frac>] [--warn-only]\n"
                   "Diffs the `values` sections of two BENCH_<name>.json "
                   "reports (schema sgnn.bench_report.v1). A change in a "
                   "better=exact metric fails even under --warn-only.\n";
      return 0;
    } else if (argv[i][0] == '-') {
      std::cerr << "sgnn_bench_compare: unknown argument '" << argv[i]
                << "'\n";
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      std::cerr << "sgnn_bench_compare: too many positional arguments\n";
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "usage: sgnn_bench_compare <baseline.json> <current.json>"
                 " [--threshold <frac>] [--warn-only]\n";
    return 2;
  }

  using namespace sgnn::bench_compare;
  Report baseline;
  Report current;
  try {
    baseline = parse_report(read_file(baseline_path));
    current = parse_report(read_file(current_path));
  } catch (const ParseError& e) {
    std::cerr << "sgnn_bench_compare: " << e.what() << "\n";
    return 2;
  }

  const CompareResult result = compare(baseline, current, threshold);
  std::cout << "comparing '" << baseline.name << "' (" << result.deltas.size()
            << " shared metrics, threshold " << percent(threshold) << ")\n";
  for (const auto& d : result.deltas) {
    std::cout << "  " << d.key << ": " << d.baseline << " -> " << d.current
              << " (" << percent(d.rel_change) << ", better=" << d.better
              << ")";
    if (d.exact_change) {
      std::cout << "  EXACT CHANGE";
    } else if (d.regression) {
      std::cout << "  REGRESSION";
    }
    if (d.improvement) std::cout << "  improvement";
    std::cout << "\n";
  }
  for (const auto& key : result.only_baseline) {
    std::cout << "  " << key << ": only in baseline\n";
  }
  for (const auto& key : result.only_current) {
    std::cout << "  " << key << ": only in current\n";
  }

  if (!result.has_regression) {
    std::cout << "sgnn_bench_compare: ok\n";
    return 0;
  }
  if (result.has_exact_change) {
    std::cout << "sgnn_bench_compare: exact metric changed:";
    for (const auto& d : result.deltas) {
      if (d.exact_change) std::cout << " " << d.key;
    }
    std::cout << " (fails even under --warn-only; re-record the baseline "
                 "if the change is intended)\n";
  } else {
    std::cout << "sgnn_bench_compare: regression detected"
              << (warn_only ? " (warn-only)" : "") << "\n";
  }
  return exit_code(result, warn_only);
}
