// Shared plumbing of the end-to-end benchmark: command-line options, the
// result line, timing and memory helpers, and the correctness-check ledger.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "p4/typecheck.h"
#include "sim/interpreter.h"

namespace perfbench {

class Tracer;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Root of the on-disk controller state (journal + checkpoints).
  std::string stateDir = ".bench_state";
  /// Chrome trace-event file written by traced runs.
  std::string traceOut;
  /// Self-test: name of one correctness check to sabotage ("" = none).
  std::string sabotage;
};

/// Everything a workload reports: metrics with units, operation counts and
/// the outcome of each correctness check.
class Result {
 public:
  explicit Result(bool traced) : traced_(traced) {}
  /// An end-to-end metric (result line of untraced runs).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (result line of traced runs).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a failed check is printed to stderr and
  /// makes the whole run incorrect.
  bool check(bool ok, const std::string& what);
  bool correct() const { return failedChecks_ == 0 && checks_ > 0; }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  /// holding the end-to-end metrics, or the per-layer ones when traced.
  std::string json() const;
  /// The metrics object alone, of one kind.
  std::string metricsJson(bool perLayer) const;
  /// Human-readable table of every metric, both kinds, for stderr.
  std::string table() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Metric {
    double value;
    std::string unit;
    bool perLayer;
  };
  bool traced_;
  std::vector<std::pair<std::string, Metric>> metrics_;
  uint64_t checks_ = 0;
  uint64_t failedChecks_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double secondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Seconds since this process started (static initialization).
double secondsSinceProcessStart();
/// CPU time (user + system) the calling thread has used, in seconds.
double threadCpuSeconds();
/// getrusage(RUSAGE_SELF) maximum resident set size, in MB.
double peakRssMb();
/// Current resident set size from /proc/self/statm, in MB.
double currentRssMb();
/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
/// splitmix64 of (seed, salt): independent per-purpose seeds from --seed.
uint64_t deriveSeed(uint64_t seed, uint64_t salt);

/// Empties (or creates) a directory tree under the run's state root.
void freshDir(const std::string& path);
void removeTree(const std::string& path);

/// Loads a bundled program by name, recording the load as a p4.load span.
flay::p4::CheckedProgram loadProgram(const std::string& name, Tracer& tracer);

/// Reads obs::Registry values (counters, histogram sums) by name.
uint64_t counterValue(const char* name);
uint64_t histogramSum(const char* name);
uint64_t histogramCount(const char* name);

/// One workload: set-up ends by calling `setupDone`, which records setup_s.
int runAclChurn(const Options& opts, Result& result, Tracer& tracer);
int runFuzzMix(const Options& opts, Result& result, Tracer& tracer);
int runBulkLoad(const Options& opts, Result& result, Tracer& tracer);
int runForward(const Options& opts, Result& result, Tracer& tracer);

/// Records setup_s (cold set-up, measured from process start).
void recordSetup(Result& result);

/// The packet-equivalence rule of the checks: same parser verdict and drop
/// decision, and for a forwarded packet the same egress port and bytes.
bool sameForwarding(const flay::sim::ExecResult& a,
                    const flay::sim::ExecResult& b);

/// Removes the last committed begin..commit group of the journal in
/// `stateDir` (and any checkpoint record after it): the self-test's
/// sabotage of the recovery check.
void dropLastCommittedGroup(const std::string& stateDir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
