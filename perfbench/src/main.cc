// perfbench: the engine benchmark.
//
//   perfbench --workload <write-gc|read-etc|scan-tier> --seed <n>
//             [--seconds <s>] [--trace <0|1>] [--trace-out <path>]
//
// --trace 0 prints the end-to-end metrics of one untraced run. --trace 1
// runs the same seed untraced and then traced, asserts that every vt
// end-to-end number agrees, and prints the per-layer metrics of the
// traced run (spans go to --trace-out). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// 0 only if every check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner.h"

namespace {

using perfbench::Metric;
using perfbench::Metrics;
using perfbench::RunResult;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--trace-out <path>]\n",
               msg);
  std::exit(2);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Report(const char* label, const RunResult& r) {
  std::printf("[%s] attempted=%llu failed=%llu (wrong_reads=%llu "
              "wrong_scans=%llu lost_writes=%llu corrupt_values=%llu "
              "reordered_acks=%llu)\n",
              label, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.failures.wrong_reads),
              static_cast<unsigned long long>(r.failures.wrong_scans),
              static_cast<unsigned long long>(r.failures.lost_writes),
              static_cast<unsigned long long>(r.failures.corrupt_values),
              static_cast<unsigned long long>(r.failures.reordered_acks));
  for (const Metric& m : r.end_to_end) {
    std::printf("[%s] %-16s %14.6g %s\n", label, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  bool have_seed = false;
  int trace = 0;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') Usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
      if (trace != 0 && trace != 1) Usage("--trace takes 0 or 1");
    } else if (a == "--trace-out") {
      opt.trace_path = v;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) Usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed) Usage("--seed is required");

  std::printf("perfbench meta: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"vt_cost_model\": %s}\n",
              spec->name, static_cast<unsigned long long>(opt.seed), trace,
              perfbench::CostModelJson().c_str());
  std::fflush(stdout);

  // Traced mode reports no setup_s, so neither of its passes spends the
  // --seconds floor on extra setups.
  if (trace == 1) opt.seconds = 0;
  RunResult plain = perfbench::RunWorkload(*spec, opt);
  Report("untraced", plain);
  if (trace == 0) {
    const bool correct = plain.failed == 0;
    PrintResult(correct, plain.attempted, plain.failed, plain.end_to_end);
    return correct ? 0 : 1;
  }

  perfbench::RunOptions topt = opt;
  topt.traced = true;
  RunResult traced = perfbench::RunWorkload(*spec, topt);
  Report("traced", traced);
  // Tracing must not move simulated time: every vt number of the traced
  // run equals the untraced run's (setup_s is host time and excluded).
  bool same_vt = traced.vt_fingerprint == plain.vt_fingerprint;
  for (const char* name : {"throughput_mops", "slo_mops", "p50_us", "p99_us",
                           "write_amp", "space_amp"}) {
    const double a = perfbench::MetricValue(plain.end_to_end, name);
    const double b = perfbench::MetricValue(traced.end_to_end, name);
    if (std::memcmp(&a, &b, sizeof(a)) != 0) {
      std::printf("vt mismatch between traced and untraced runs: %s %.17g "
                  "vs %.17g\n", name, a, b);
      same_vt = false;
    }
  }
  if (!same_vt) std::printf("vt fingerprint mismatch\n");
  Metrics layers = traced.per_layer;
  layers.push_back({"bench.trace_host_overhead", "ratio",
                    traced.serving_host_s / plain.serving_host_s - 1.0});
  layers.push_back({"bench.failed_ratio", "ratio",
                    static_cast<double>(traced.failed) /
                        static_cast<double>(traced.attempted)});
  const bool correct = same_vt && plain.failed == 0 && traced.failed == 0;
  PrintResult(correct, traced.attempted, traced.failed, layers);
  return correct ? 0 : 1;
}
