#include "update_probe.h"

#include <algorithm>

#include "flay/specializer.h"
#include "obs/obs.h"
#include "p4/clone.h"

namespace perfbench {

namespace {

namespace obs = flay::obs;

/// Registry handles read around every traced apply. Cached once: lookups
/// take the registry mutex.
struct Handles {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& configApply = reg.histogram("flay.config_apply_us");
  obs::Histogram& analyze = reg.histogram("flay.analyze_us");
  obs::Histogram& closure = reg.histogram("flay.closure_us");
  obs::Histogram& encode = reg.histogram("flay.encode_us");
  obs::Histogram& digest = reg.histogram("flay.digest_us");
  obs::Histogram& substitute = reg.histogram("flay.substitute_us");
  obs::Histogram& smtCheck = reg.histogram("smt.check_us");
  obs::Histogram& satSolve = reg.histogram("sat.solve_us");
  obs::Counter& journalRecords = reg.counter("controller.journal_records");
  obs::Counter& checkpoints = reg.counter("controller.checkpoints");

  static Handles& get() {
    static Handles instance;
    return instance;
  }
};

struct Reading {
  uint64_t configApply, analyze, closure, encode, digest, substitute, smtCheck,
      satSolve, journalRecords, checkpoints;

  static Reading take() {
    Handles& h = Handles::get();
    return {h.configApply.sum(),    h.analyze.sum(),  h.closure.sum(),
            h.encode.sum(),         h.digest.sum(),   h.substitute.sum(),
            h.smtCheck.sum(),       h.satSolve.sum(), h.journalRecords.value(),
            h.checkpoints.value()};
  }
};

/// Lays derived child spans back to back inside a parent's interval, each
/// clamped to the room left so children never overrun their parent.
struct Cursor {
  Tracer& tracer;
  int32_t parent;
  uint64_t seq;
  int64_t at;
  int64_t end;

  int32_t put(const char* name, int64_t durNs) {
    int64_t dur = std::clamp<int64_t>(durNs, 0, std::max<int64_t>(end - at, 0));
    int32_t id = tracer.span(name, at, dur, parent, seq, /*derived=*/true);
    at += dur;
    return id;
  }
};

int64_t usToNs(double us) { return static_cast<int64_t>(us * 1000.0); }

}  // namespace

flay::tofino::CompileResult TimingDevice::compileProgram(
    const flay::p4::CheckedProgram& checked) {
  Interval iv{tracer_.nowNs(), 0};
  flay::tofino::CompileResult r = inner_.compileProgram(checked);
  iv.end = tracer_.nowNs();
  compiles.push_back(iv);
  return r;
}

ctl::InstallResult TimingDevice::installProgram(
    const flay::p4::CheckedProgram& checked) {
  Interval iv{tracer_.nowNs(), 0};
  ctl::InstallResult r = inner_.installProgram(checked);
  iv.end = tracer_.nowNs();
  installs.push_back(iv);
  return r;
}

UpdateProbe::UpdateProbe(Tracer& tracer, Samples& samples,
                         std::string scratchDir,
                         const flay::tofino::PipelineModel& model)
    : tracer_(tracer),
      samples_(samples),
      scratchDir_(std::move(scratchDir)),
      plain_(ctl::FaultPlan{}, model),
      timing_(tracer, model),
      mark_(std::make_shared<AnalysisMark>(tracer)) {
  if (tracer_.enabled()) {
    freshDir(scratchDir_);
    scratchJournal_ = std::make_unique<ctl::Journal>(scratchDir_ + "/scratch.jsonl");
    scratchJournal_->open();
  }
}

UpdateProbe::~UpdateProbe() {
  if (scratchJournal_ != nullptr) {
    scratchJournal_->close();
    removeTree(scratchDir_);
  }
}

void UpdateProbe::attach(ctl::FaultTolerantController& ctrl) {
  ctrl.setEpochCallback(
      [this](const ctl::EpochEvent&) { visibleAt_ = Clock::now(); });
  if (tracer_.enabled()) ctrl.service().attachAnalysis(mark_);
}

void UpdateProbe::resetMarks() {
  timing_.compiles.clear();
  timing_.installs.clear();
  mark_->marks.clear();
  visibleAt_ = {};
}

double UpdateProbe::apply(ctl::FaultTolerantController& ctrl,
                          const flay::runtime::Update& update, uint64_t seq,
                          ctl::ApplyResult* result) {
  if (!tracer_.enabled()) {
    Clock::time_point t0 = Clock::now();
    *result = ctrl.apply(update);
    return microsBetween(t0, Clock::now());
  }

  Reading before{};
  {
    OverheadScope overhead(tracer_);
    before = Reading::take();
    resetMarks();
  }
  Clock::time_point t0 = Clock::now();
  *result = ctrl.apply(update);
  Clock::time_point t1 = Clock::now();

  OverheadScope overhead(tracer_);
  Reading after = Reading::take();
  const int64_t s0 = tracer_.toNs(t0);
  const int64_t s1 = tracer_.toNs(t1);
  const int64_t analysisEnd = mark_->marks.empty() ? s0 : mark_->marks.front();
  const int64_t appendNs = usToNs(median(samples_.journalAppendUs));
  auto deltaNs = [&](uint64_t Reading::*field) {
    return static_cast<int64_t>((after.*field - before.*field) * 1000);
  };

  int32_t root = tracer_.span("update", s0, s1 - s0, Tracer::kRoot, seq);
  // Before the analysis mark: journal begin + update records and the
  // rollback snapshot (sampled estimates, clamped to the room left), then
  // the config apply and the analysis (exact, from the histograms).
  int64_t analyzeNs = std::min(deltaNs(&Reading::analyze),
                               std::max<int64_t>(analysisEnd - s0, 0));
  int64_t analyzeStart = analysisEnd - analyzeNs;
  int64_t applyNs = std::min(deltaNs(&Reading::configApply),
                             std::max<int64_t>(analyzeStart - s0, 0));
  int64_t applyStart = analyzeStart - applyNs;
  Cursor pre{tracer_, root, seq, s0, applyStart};
  pre.put("controller.journal", 2 * appendNs);
  pre.put("flay.snapshot", usToNs(median(samples_.snapshotUs)));
  tracer_.span("runtime.config_apply", applyStart, applyNs, root, seq,
               /*derived=*/true);
  int32_t analyze = tracer_.span("flay.analyze", analyzeStart, analyzeNs,
                                 root, seq, /*derived=*/true);
  Cursor phases{tracer_, analyze, seq, analyzeStart, analysisEnd};
  phases.put("flay.closure", deltaNs(&Reading::closure));
  phases.put("flay.encode", deltaNs(&Reading::encode));
  phases.put("flay.digest", deltaNs(&Reading::digest));
  phases.put("flay.substitute", deltaNs(&Reading::substitute));

  const int64_t epochNs = visibleNs();
  int64_t visible = epochNs != 0 ? epochNs : s1;
  if (!timing_.compiles.empty()) {
    // Recompile: commit record, specialize (its SAT probes) and recheck up
    // to the device compile, then install.
    const Interval& compile = timing_.compiles.front();
    int32_t spec = tracer_.span("flay.specialize", analysisEnd,
                                compile.start - analysisEnd, root, seq);
    Cursor in{tracer_, spec, seq, analysisEnd, compile.start};
    in.put("controller.journal", appendNs);
    int64_t smtStart = in.at;
    int32_t smt = in.put("smt.check", deltaNs(&Reading::smtCheck));
    Cursor sat{tracer_, smt, seq, smtStart, in.at};
    sat.put("sat.solve", deltaNs(&Reading::satSolve));
    in.put("p4.recheck", usToNs(median(samples_.recheckUs)));
    for (const Interval& iv : timing_.compiles) {
      tracer_.span("tofino.compile", iv.start, iv.end - iv.start, root, seq);
    }
    for (const Interval& iv : timing_.installs) {
      tracer_.span("controller.install", iv.start, iv.end - iv.start, root,
                   seq);
    }
  } else {
    Cursor commit{tracer_, root, seq, analysisEnd, visible};
    commit.put("controller.journal", appendNs);
  }
  if (after.checkpoints != before.checkpoints && epochNs != 0) {
    tracer_.span("controller.checkpoint", epochNs, s1 - epochNs, root, seq);
  }
  return microsBetween(t0, t1);
}

void UpdateProbe::sampleSnapshotAndAppend(ctl::FaultTolerantController& ctrl,
                                          const flay::runtime::Update& update) {
  if (!tracer_.enabled()) return;
  OverheadScope overhead(tracer_);
  Clock::time_point t0 = Clock::now();
  {
    // Destruction included: apply() pays for dropping its snapshot too.
    flay::flay::ServiceSnapshot snap = ctrl.service().snapshot();
  }
  Clock::time_point t1 = Clock::now();
  scratchJournal_->appendUpdate(update);
  Clock::time_point t2 = Clock::now();
  samples_.snapshotUs.push_back(microsBetween(t0, t1));
  samples_.journalAppendUs.push_back(microsBetween(t1, t2));
}

void UpdateProbe::sampleCheckpoint(ctl::FaultTolerantController& ctrl) {
  if (!tracer_.enabled()) return;
  OverheadScope overhead(tracer_);
  Clock::time_point t0 = Clock::now();
  ctl::Checkpoint::write(scratchDir_ + "/scratch.ckpt", ctrl.service().config(),
                         0);
  samples_.checkpointUs.push_back(microsBetween(t0, Clock::now()));
}

void UpdateProbe::sampleRecheck(const flay::p4::CheckedProgram& installed) {
  if (!tracer_.enabled()) return;
  OverheadScope overhead(tracer_);
  flay::p4::Program copy = flay::p4::cloneProgram(installed.program);
  Clock::time_point t0 = Clock::now();
  flay::p4::CheckedProgram rechecked = flay::flay::recheck(std::move(copy));
  samples_.recheckUs.push_back(microsBetween(t0, Clock::now()));
}

}  // namespace perfbench
