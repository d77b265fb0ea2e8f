// Drives FaultTolerantController::apply for the controller workloads and,
// in traced runs, turns the program's existing seams into spans:
//  - a controller::Device wrapper times compile and install;
//  - a flay::UpdateAnalysis observer marks when analysis ends inside apply;
//  - the controller's EpochCallback marks when the update is device-visible;
//  - obs::Registry histogram deltas give the analysis sub-phases;
//  - standalone timed calls on the live state (snapshot, journal append,
//    checkpoint write, recheck) price the steps that have no seam.
#ifndef PERFBENCH_UPDATE_PROBE_H
#define PERFBENCH_UPDATE_PROBE_H

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "controller/controller.h"
#include "tracer.h"

namespace perfbench {

namespace ctl = flay::controller;

/// Wall-clock interval in tracer nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Times every compile and install the controller asks of the device.
class TimingDevice final : public ctl::Device {
 public:
  TimingDevice(Tracer& tracer, const flay::tofino::PipelineModel& model)
      : tracer_(tracer), inner_(ctl::FaultPlan{}, model) {}
  flay::tofino::CompileResult compileProgram(
      const flay::p4::CheckedProgram& checked) override;
  ctl::InstallResult installProgram(
      const flay::p4::CheckedProgram& checked) override;

  std::vector<Interval> compiles;
  std::vector<Interval> installs;

 private:
  Tracer& tracer_;
  ctl::SimulatedDevice inner_;
};

/// Marks the end of each analysis round (one per apply, one per bulk
/// chunk).
class AnalysisMark final : public flay::flay::UpdateAnalysis {
 public:
  explicit AnalysisMark(Tracer& tracer) : tracer_(tracer) {}
  void onUpdateAnalyzed(const flay::flay::UpdateVerdict&) override {
    marks.push_back(tracer_.nowNs());
  }
  /// Every mark since the last reset.
  std::vector<int64_t> marks;

 private:
  Tracer& tracer_;
};

/// Per-layer medians of the standalone timed calls.
struct Samples {
  std::vector<double> snapshotUs;
  std::vector<double> journalAppendUs;
  std::vector<double> checkpointUs;
  std::vector<double> recheckUs;
};

/// One controller plus the seams around it. Untraced, the controller talks
/// to a plain SimulatedDevice and nothing is attached.
class UpdateProbe {
 public:
  /// `scratchDir` holds the scratch journal and checkpoint of the
  /// standalone calls; it must be on the same disk as the state directory.
  /// The device has no fault plan; `model` sizes its pipeline.
  UpdateProbe(Tracer& tracer, Samples& samples, std::string scratchDir,
              const flay::tofino::PipelineModel& model = {});
  ~UpdateProbe();
  UpdateProbe(const UpdateProbe&) = delete;
  UpdateProbe& operator=(const UpdateProbe&) = delete;

  ctl::Device* device() {
    return tracer_.enabled() ? static_cast<ctl::Device*>(&timing_) : &plain_;
  }
  /// Sets the epoch callback (every run: one clock read per device-visible
  /// change) and, in traced runs, attaches the analysis observer.
  void attach(ctl::FaultTolerantController& ctrl);

  /// Applies one update; returns its apply() latency in microseconds.
  /// Traced, it also records the update's span tree keyed by `seq`.
  double apply(ctl::FaultTolerantController& ctrl,
               const flay::runtime::Update& update, uint64_t seq,
               ctl::ApplyResult* result);

  /// Standalone timed calls on the live state (traced runs only; charged
  /// to the tracing overhead).
  void sampleSnapshotAndAppend(ctl::FaultTolerantController& ctrl,
                               const flay::runtime::Update& update);
  void sampleCheckpoint(ctl::FaultTolerantController& ctrl);
  void sampleRecheck(const flay::p4::CheckedProgram& installed);

  /// Seam marks of the last traced call (tracer nanoseconds, 0 = none), for
  /// callers that drive the controller themselves.
  void resetMarks();
  const std::vector<int64_t>& analysisMarks() const { return mark_->marks; }
  int64_t visibleNs() const {
    return visibleAt_ == Clock::time_point{} ? 0 : tracer_.toNs(visibleAt_);
  }
  /// When the last call's updates became device-visible (epoch { } = none).
  Clock::time_point visibleAt() const { return visibleAt_; }
  const TimingDevice& timing() const { return timing_; }

 private:
  Tracer& tracer_;
  Samples& samples_;
  std::string scratchDir_;
  ctl::SimulatedDevice plain_;
  TimingDevice timing_;
  std::shared_ptr<AnalysisMark> mark_;
  std::unique_ptr<ctl::Journal> scratchJournal_;
  Clock::time_point visibleAt_{};
};

/// Default controller options, persisting to `stateDir`.
inline ctl::ControllerOptions withStateDir(const std::string& stateDir) {
  ctl::ControllerOptions options;
  options.stateDir = stateDir;
  return options;
}

}  // namespace perfbench

#endif  // PERFBENCH_UPDATE_PROBE_H
