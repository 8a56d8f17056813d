// Workload definitions and the code that runs one workload.
//
// One run of a workload, all on one host thread:
//   1. setup (timed, repeated): PM pool with crash tracking, FlatStore-H,
//      preload of the whole key space through the shim (seeding the
//      oracle), and for scan-tier the initial full tiering;
//   2. closed-loop segments through core::RunServer, with the cleaner
//      and/or tiering pass run synchronously after each segment; the
//      first `warmup_segments` are not measured;
//   3. one open-loop run at the workload's frozen offered rate (p50/p99);
//   4. the open-loop SLO search (bisection on the offered rate);
//   5. SimulateCrash + FlatStore::Open, the durability check of every
//      key, and repeated timed reopens.
// Every vt number is a pure function of the workload and the seed.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/flatstore.h"
#include "shim.h"
#include "workload/workload.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  flatstore::core::FlatStoreOptions store;
  uint64_t pool_mb;
  flatstore::workload::Config mix;  // mix.key_space keys are preloaded
  // Closed loop: segments of closed_ops_per_conn requests per connection.
  int warmup_segments;
  int measured_segments;
  uint64_t closed_ops_per_conn;
  uint64_t probe_ops_per_conn;  // per SLO probe
  double fixed_rate_mops;  // offered rate of the p50/p99 run (frozen)
  double p99_limit_us;     // latency limit of the SLO search (frozen)
  bool cleaner_pass;       // RunCleanersOnce after every segment
  bool tiering_pass;       // RunTieringOnce after every segment
  uint64_t scan_check_every;  // 1 in N scans cross-checked (0: none)
};

// The workload named `name` (as in BENCHMARK.json), or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  bool traced = false;
  // Floor on the run's wall time: after the fixed workload, further timed
  // setups (12 at most in all) run until this many seconds passed.
  double seconds = 0;
  std::string trace_path;  // traced runs write their spans here
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};
using Metrics = std::vector<Metric>;

struct RunResult {
  Metrics end_to_end;  // vt metrics, then setup_s (wall)
  Metrics per_layer;   // traced runs only
  // Per-segment vt summaries; identical between traced and untraced runs
  // of one seed.
  std::vector<uint64_t> vt_fingerprint;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Failures failures;
  double serving_host_s = 0;  // host time of the measured segments
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

// Value of `name` in `m` (aborts if absent).
double MetricValue(const Metrics& m, const std::string& name);

// The vt cost-model constants of src/vt/costs.h, for result stamping.
std::string CostModelJson();

// Interpolated percentile of a log-bucketed histogram: the bucket's
// lower edge plus the rank's position inside the bucket, so the value
// moves smoothly with the samples instead of in ~6% bucket steps.
double InterpolatedPercentile(const flatstore::Histogram& h, double p);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
