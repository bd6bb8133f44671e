// csm_perfbench: runs one benchmark workload and prints its run record
// and, as the last line of standard output, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1, which also writes the span forest as JSON).
//
// Usage: csm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --work-dir DIR [--commit REV] [--source-digest D]
//                      [--corrupt-output]
// perfbench/run.py builds this program and is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::Harness;

constexpr size_t kRoomyBudgetBytes = 1ull << 30;

#ifndef CSM_PERFBENCH_BUILD_TYPE
#define CSM_PERFBENCH_BUILD_TYPE "unknown"
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "csm_perfbench: %s\n"
               "usage: csm_perfbench --workload q1_bounded|q1_roomy|"
               "netlog_live --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit REV] [--source-digest D] "
               "[--corrupt-output]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-output") {
      args->corrupt_output = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir + "/tmp", ec);
  if (ec) return Usage("cannot create the work directory");

  Harness h(args);
  h.RecordString("workload", args.workload);
  h.Record("seed", std::to_string(args.seed));
  h.Record("seconds", std::to_string(args.seconds));
  h.Record("trace", args.trace ? "true" : "false");
  h.Record("hardware_threads",
           std::to_string(std::thread::hardware_concurrency()));
  h.RecordString("build_type", CSM_PERFBENCH_BUILD_TYPE);
#ifdef CSM_SIMD
  h.Record("csm_simd", "true");
#else
  h.Record("csm_simd", "false");
#endif
  h.RecordString("commit", args.commit.empty() ? "unknown" : args.commit);
  h.RecordString("source_digest", args.source_digest);
  h.RecordString("engine", "adaptive");

  csm::Status status;
  if (args.workload == "q1_bounded") {
    status = perfbench::RunQ1(h, csm::EngineOptions{}.memory_budget_bytes);
  } else if (args.workload == "q1_roomy") {
    status = perfbench::RunQ1(h, kRoomyBudgetBytes);
  } else if (args.workload == "netlog_live") {
    status = perfbench::RunNetlogLive(h);
  } else {
    return Usage("unknown workload");
  }
  std::filesystem::remove_all(args.work_dir + "/tmp", ec);
  if (!status.ok()) {
    std::fprintf(stderr, "csm_perfbench: %s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  h.Record("attempted", std::to_string(h.attempted()));
  h.Record("failed", std::to_string(h.failed()));
  char frac[64];
  std::snprintf(frac, sizeof(frac), "%.17g",
                static_cast<double>(h.failed()) /
                    static_cast<double>(h.attempted() > 0 ? h.attempted()
                                                          : 1));
  h.Record("failed_frac", frac);
  if (args.trace) {
    h.tracer().EndSpan(h.root());
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    out << "{\"run_record\": " << h.RecordJson()
        << ",\n\"spans\": " << h.tracer().ToJson() << "}\n";
    if (!out) {
      std::fprintf(stderr, "csm_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    h.RecordString("trace_file", path);
  }

  std::printf("run_record %s\n", h.RecordJson().c_str());
  std::string metrics;
  for (const auto& [name, metric] : h.metrics()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), metric.first,
                  metric.second.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              h.correct() ? "true" : "false",
              static_cast<unsigned long long>(h.attempted()),
              static_cast<unsigned long long>(h.failed()), metrics.c_str());
  return 0;
}
