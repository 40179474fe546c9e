// sgnn_perfbench: the repository benchmark. One run executes one workload
// for one seed and prints two JSON lines on stdout: a record (fingerprint,
// workload facts, exact counts, output checks) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with obs::prof and tracing off; with
// --trace 1 they are the per-layer ones. See perfbench/README.md.
//
//   sgnn_perfbench --workload fig3_train --seed 7 --seconds 20 --trace 0

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "sgnn/util/logging.hpp"
#include "sgnn/util/parse.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

struct Workload {
  const char* name;
  int pool_threads;
  void (*run)(const Args&, Result&);
};

// The thread budget of a 4-core host: each workload runs at most four busy
// threads in total.
constexpr Workload kWorkloads[] = {
    {"fig3_train", perfbench::kFig3PoolThreads, perfbench::run_fig3_train},
    {"gpar4_train", perfbench::kGparPoolThreads, perfbench::run_gpar4_train},
    {"serve_mixed", perfbench::kServePoolThreads, perfbench::run_serve_mixed},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "sgnn_perfbench: %s\n"
               "usage: sgnn_perfbench --workload fig3_train|gpar4_train|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n",
               message);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      if (!sgnn::util::parse_double(value, args.seconds)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");
  if (std::getenv("SGNN_LOG_LEVEL") == nullptr) {
    sgnn::Logger::instance().set_level(sgnn::LogLevel::kWarn);
  }

  sgnn::ThreadPool::instance().resize(workload->pool_threads);
  Result result;
  try {
    workload->run(args, result);
  } catch (const std::exception& error) {
    result.check(false, std::string("workload threw: ") + error.what());
  }
  std::printf("%s\n%s\n",
              result.record_json(args,
                                 perfbench::fingerprint_json(
                                     workload->pool_threads))
                  .c_str(),
              result.result_json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
