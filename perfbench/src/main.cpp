// perfbench: runs one named workload against libpgti and prints its
// metrics.  perfbench/run.py builds this binary, runs it, and turns
// the RESULT line into the benchmark's JSON result (units and the
// metric contract come from BENCHMARK.json).
//
//   perfbench --workload <train-index|ddp-store|serve-open> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "runtime/logging.h"
#include "workloads.h"

namespace perfbench {

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::printf("CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <train-index|ddp-store|serve-open> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

void print_result(const Report& r) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const double v = r.metrics[i].second;
    // JSON has no inf/nan; an unbounded value is reported as null.
    if (std::isfinite(v)) {
      std::printf("%s\"%s\": %.17g", i ? ", " : "", r.metrics[i].first.c_str(), v);
    } else {
      std::printf("%s\"%s\": null", i ? ", " : "", r.metrics[i].first.c_str());
    }
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      opt.trace_path = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  pgti::set_log_threshold(pgti::LogLevel::kWarn);
  // Kernels run on one pool thread (the pool reads this when first
  // used).  On a shared few-core host a multi-threaded parallel_for
  // waits for its slowest worker, and the run-to-run spread that adds
  // is larger than the regressions the bounds must catch.
  setenv("PGTI_NUM_THREADS", "1", 1);

  Report report;
  try {
    if (opt.workload == "train-index") {
      report = run_train_index(opt);
    } else if (opt.workload == "ddp-store") {
      report = run_ddp_store(opt);
    } else if (opt.workload == "serve-open") {
      report = run_serve_open(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    std::printf("\n%-32s %8s %12s %12s\n", "span", "count", "total ms", "self ms");
    for (const auto& [name, t] : totals_by_name(spans)) {
      std::printf("%-32s %8lld %12.3f %12.3f\n", name.c_str(), static_cast<long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    if (!opt.trace_path.empty()) {
      if (!Tracer::instance().write_chrome(opt.trace_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
        return 1;
      }
      std::printf("chrome trace: %s (%zu spans)\n", opt.trace_path.c_str(), spans.size());
    }
  }
  print_result(report);
  return 0;
}
