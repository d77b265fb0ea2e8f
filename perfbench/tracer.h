// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded by the benchmark around its calls into each layer (and derived
// from the program's own obs::Registry histograms where a call has no seam
// of its own), kept in memory, and written once at the end as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int32_t kRoot = -1;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Nanoseconds since the tracer was created (the trace timebase).
  int64_t nowNs() const { return toNs(Clock::now()); }
  int64_t toNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Records a finished span. `name` is "<layer>.<what>" (a string literal);
  /// a name without a dot marks a root whose self time is the part no layer
  /// accounts for. `seq` keys the span to its operation (update sequence
  /// number, round, packet). `derived` marks a span whose duration comes
  /// from a registry histogram or a sampled standalone call rather than its
  /// own clock pair. Returns the span's id, usable as a parent.
  int32_t span(const char* name, int64_t startNs, int64_t durNs,
               int32_t parent, uint64_t seq, bool derived = false);

  /// Charges bookkeeping and standalone-call time to the tracing overhead.
  void addOverheadNs(int64_t ns) { overheadNs_ += ns; }
  double overheadSeconds() const { return overheadNs_ * 1e-9; }

  /// Self time (duration minus direct children) summed per layer, in
  /// microseconds. Roots report under "unattributed".
  std::map<std::string, double> layerSelfUs() const;
  /// Total duration of the spans named `name`.
  double totalUs(const std::string& name) const;

  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start;
    int64_t dur;
    int32_t parent;
    bool derived;
    uint64_t seq;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> childNs_;
  int64_t overheadNs_ = 0;
};

/// Reports `<layer>.self_us` for each of `layers` and, when `rootLayer` is
/// not empty, `<rootLayer>.unattributed_us` (root self time), all per
/// operation; plus trace.overhead_pct, the tracing bookkeeping and
/// standalone calls as a share of the measured phase.
void reportLayers(Result& result, const Tracer& tracer,
                  const std::vector<std::string>& layers,
                  const std::string& rootLayer, double ops,
                  double phaseSeconds);

/// Charges the enclosing block's time to the tracing overhead.
class OverheadScope {
 public:
  explicit OverheadScope(Tracer& tracer)
      : tracer_(tracer), start_(Clock::now()) {}
  OverheadScope(const OverheadScope&) = delete;
  OverheadScope& operator=(const OverheadScope&) = delete;
  ~OverheadScope() {
    tracer_.addOverheadNs(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start_)
                              .count());
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H
