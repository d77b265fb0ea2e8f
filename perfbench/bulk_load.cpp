// bulk_load: a long stream of net::bulkRouteUpdate inserts into bulkroute
// through FaultTolerantController::applyBulk, journaled to disk. This is
// the classifier pre-filter (nearly every insert bypasses analysis),
// TableState inserts and per-record journaling at volume: the write path
// of acl_churn used in streamed chunks instead of single transactions.
//
// A run repeats one fixed load (the same stream, on a fresh controller and
// state directory each time) until its time is spent, so the work per load
// and the memory it needs do not depend on how fast the program is.
#include <optional>

#include "common.h"
#include "flay/specializer.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "sim/interpreter.h"
#include "tracer.h"
#include "update_probe.h"

namespace perfbench {

namespace {

namespace runtime = flay::runtime;

/// Four default-sized chunks: four journal groups and one checkpoint per
/// load, short enough for a run to hold a dozen or more loads.
constexpr size_t kChunk = 4096;
constexpr size_t kLoad = 4 * kChunk;
/// Packets a traced run forwards through the installed program after each
/// load, for sim.process_us.
constexpr size_t kSamplePackets = 16;

/// bulkroute declares a 1.25M-entry FIB: the default (Tofino-2-like) model
/// rejects it, which would leave the controller degraded for the whole run.
/// One stage's SRAM must hold the FIB (763 blocks) and its TCAM the ACL
/// (128 blocks).
flay::tofino::PipelineModel bulkScaleModel() {
  flay::tofino::PipelineModel model;
  model.sramBlocksPerStage = 1024;
  model.tcamBlocksPerStage = 256;
  return model;
}

}  // namespace

int runBulkLoad(const Options& opts, Result& result, Tracer& tracer) {
  const std::string stateDir = opts.stateDir + "/bulk_load";
  flay::p4::CheckedProgram checked = loadProgram("bulkroute", tracer);
  Samples samples;
  UpdateProbe probe(tracer, samples, opts.stateDir + "/bulk_load-scratch",
                    bulkScaleModel());
  const uint64_t streamSeed = deriveSeed(opts.seed, 3);
  // Set-up ends with the first load's controller open on an empty state
  // directory, its initial program specialized, compiled and installed.
  auto openController = [&] {
    freshDir(stateDir);
    auto ctrl = std::make_unique<ctl::FaultTolerantController>(
        checked, probe.device(), withStateDir(stateDir));
    probe.attach(*ctrl);
    return ctrl;
  };
  std::unique_ptr<ctl::FaultTolerantController> ctrl = openController();
  recordSetup(result);

  // Pull times at chunk boundaries (traced runs): each chunk's ingest ends
  // at its last pull, and its analysis and journal group end at the next
  // chunk's first pull (or the end-of-stream pull).
  std::vector<int64_t> firstPullNs;
  std::vector<int64_t> lastPullNs;
  int64_t endPullNs = 0;
  double loadSeconds = 0;
  double updates = 0;
  std::vector<double> loadRate;
  std::vector<double> medianUpdateMs;  // per load
  std::vector<double> recompileMs;     // per load
  std::vector<double> processUs;       // traced: packets on the installed program
  double arenaNodes = 0;
  double recompiles = 0;
  bool ok = true;
  const uint64_t recordsBefore = counterValue("controller.journal_records");
  const uint64_t applyBefore = histogramSum("flay.config_apply_us");
  const uint64_t verdictBefore = histogramSum("flay.bulk_verdict_us");
  const uint64_t chunksBefore = histogramCount("flay.bulk_verdict_us");
  const uint64_t bypassBefore = counterValue("flay.bulk_bypass");
  const uint64_t analyzedBefore = counterValue("flay.bulk_analyzed");
  const uint64_t rebuildsBefore = counterValue("flay.bulk_probe_rebuilds");
  const uint64_t analyzeBefore = histogramSum("flay.analyze_us");
  const uint64_t closureBefore = histogramSum("flay.closure_us");
  const uint64_t encodeBefore = histogramSum("flay.encode_us");
  const uint64_t substituteBefore = histogramSum("flay.substitute_us");
  const uint64_t digestBefore = histogramSum("flay.digest_us");
  const uint64_t hitsBefore = counterValue("cache.hits");
  const uint64_t missesBefore = counterValue("cache.misses");
  const uint64_t probesBefore = counterValue("smt.incremental_probes");
  const uint64_t sessionRebuildsBefore = counterValue("smt.session_rebuilds");
  const uint64_t conflictsBefore = counterValue("sat.conflicts");
  const uint64_t solveBefore = histogramSum("sat.solve_us");
  Clock::time_point phaseStart = Clock::now();

  for (uint64_t round = 0;
       ok && (round == 0 || secondsSince(phaseStart) < opts.seconds); ++round) {
    if (round > 0) {
      ctrl.reset();
      ctrl = openController();
    }
    probe.resetMarks();
    if (tracer.enabled()) {
      OverheadScope overhead(tracer);
      firstPullNs.clear();
      lastPullNs.clear();
    }
    const size_t nodesBefore = ctrl->service().arena().numNodes();
    // The stream is generated as it is pulled, as bulkRouteUpdate is meant
    // to be used: a load never materializes it. An update's latency runs
    // from the pull that hands it to the controller to the load's
    // device-visible epoch; pulls are in stream order, so the median
    // update's is the middle pull's.
    size_t next = 0;
    size_t routeInserts = 0;
    size_t aclInserts = 0;
    Clock::time_point midPull{};
    Clock::time_point endPull{};
    flay::flay::UpdateSource source = [&]() -> std::optional<runtime::Update> {
      if (next >= kLoad) {
        if (endPull == Clock::time_point{}) endPull = Clock::now();
        return std::nullopt;
      }
      if (next == kLoad / 2) midPull = Clock::now();
      if (tracer.enabled() && next % kChunk == 0) {
        firstPullNs.push_back(tracer.nowNs());
      }
      runtime::Update u = flay::net::bulkRouteUpdate(next++, streamSeed);
      (u.target == "BulkIngress.acl" ? aclInserts : routeInserts) += 1;
      if (tracer.enabled() && next % kChunk == 0) {
        lastPullNs.push_back(tracer.nowNs());
      }
      return u;
    };
    const uint64_t applyStart = histogramSum("flay.config_apply_us");
    const uint64_t smtStart = histogramSum("smt.check_us");
    const uint64_t satStart = histogramSum("sat.solve_us");
    Clock::time_point t0 = Clock::now();
    ctl::BulkApplyResult r = ctrl->applyBulk(source);
    Clock::time_point t1 = Clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    loadSeconds += seconds;
    loadRate.push_back(static_cast<double>(r.report.applied) / seconds);
    updates += static_cast<double>(r.report.applied);
    result.attempted += r.report.updates;
    result.failed += r.report.rejected;
    ok &= result.check(r.report.applied == kLoad && r.report.rejected == 0 &&
                           r.deviceCurrent,
                       "bulk_load: load " + std::to_string(round) +
                           " applied every update and reached the device");
    const runtime::DeviceConfig& config = ctrl->service().config();
    ok &= result.check(
        config.table("BulkIngress.routes").size() == routeInserts &&
            config.table("BulkIngress.acl").size() == aclInserts,
        "bulk_load: per-table entry counts equal the stream's inserts");
    // Tables that start empty and fill change the program's semantics, so
    // every load ends in specialize + compile + install.
    const Clock::time_point visible = probe.visibleAt();
    ok &= result.check(r.report.needsRecompilation && visible >= endPull &&
                           endPull > midPull && midPull > t0,
                       "bulk_load: load " + std::to_string(round) +
                           " demanded a recompile and became device-visible "
                           "after its last pull");
    if (!ok) break;
    medianUpdateMs.push_back(
        std::chrono::duration<double, std::milli>(visible - midPull).count());
    recompileMs.push_back(
        std::chrono::duration<double, std::milli>(visible - endPull).count());
    recompiles += 1;
    std::fprintf(stderr,
                 "bulk_load: load %llu: %.0f updates/s, median update %.1f ms, "
                 "recompile %.1f ms\n",
                 static_cast<unsigned long long>(round), loadRate.back(),
                 medianUpdateMs.back(), recompileMs.back());
    arenaNodes += static_cast<double>(ctrl->service().arena().numNodes() -
                                      nodesBefore);
    endPullNs = tracer.toNs(endPull);

    if (tracer.enabled()) {
      // Standalone timed calls on the installed program: recheck, and a
      // packet sample forwarded under its migrated config.
      probe.sampleRecheck(ctrl->deviceProgram());
      OverheadScope overhead(tracer);
      const flay::p4::CheckedProgram& installed = ctrl->deviceProgram();
      runtime::DeviceConfig migrated =
          flay::flay::migrateConfig(installed, ctrl->deviceConfig());
      flay::sim::DataPlaneState state(installed);
      flay::sim::Interpreter interpreter(installed, migrated, state);
      flay::net::PacketFuzzer packets(checked, ctrl->deviceConfig(),
                                      deriveSeed(opts.seed, 4) + round);
      for (size_t i = 0; i < kSamplePackets; ++i) {
        flay::sim::Packet p = packets.randomPacket();
        Clock::time_point p0 = Clock::now();
        interpreter.process(p);
        processUs.push_back(microsBetween(p0, Clock::now()));
      }
    }
    if (tracer.enabled()) {
      // Seams: the source's pulls bracket each chunk's ingest, the analysis
      // marks end chunk verdicts, the epoch follows the device reconcile,
      // and a checkpoint may follow that.
      OverheadScope overhead(tracer);
      const int64_t s0 = tracer.toNs(t0);
      const int64_t s1 = tracer.toNs(t1);
      int32_t root = tracer.span("load", s0, s1 - s0, Tracer::kRoot, round);
      const int64_t applyNs = static_cast<int64_t>(
          (histogramSum("flay.config_apply_us") - applyStart) * 1000);
      const auto& marks = probe.analysisMarks();
      const int64_t chunks = static_cast<int64_t>(lastPullNs.size());
      for (size_t c = 0; c < lastPullNs.size(); ++c) {
        int64_t ingestNs = lastPullNs[c] - firstPullNs[c];
        int32_t ingest = tracer.span("flay.bulk_ingest", firstPullNs[c],
                                     ingestNs, root, round);
        tracer.span("runtime.config_apply", firstPullNs[c],
                    std::min<int64_t>(applyNs / chunks, ingestNs), ingest,
                    round, /*derived=*/true);
        const int64_t chunkEnd =
            c + 1 < firstPullNs.size() ? firstPullNs[c + 1] : endPullNs;
        int64_t verdictEnd = lastPullNs[c];
        for (int64_t m : marks) {
          if (m > lastPullNs[c] && m <= chunkEnd) verdictEnd = m;
        }
        tracer.span("flay.analyze", lastPullNs[c], verdictEnd - lastPullNs[c],
                    root, round);
        tracer.span("controller.journal", verdictEnd, chunkEnd - verdictEnd,
                    root, round);
      }
      const int64_t visible = probe.visibleNs() != 0 ? probe.visibleNs() : s1;
      const auto& compiles = probe.timing().compiles;
      if (!compiles.empty()) {
        // Specialize up to the device compile: its SMT checks (and their
        // SAT solves), then the recheck of the specialized program.
        const int64_t specEnd = compiles.front().start;
        int32_t spec = tracer.span("flay.specialize", endPullNs,
                                   specEnd - endPullNs, root, round);
        const int64_t room = std::max<int64_t>(specEnd - endPullNs, 0);
        const int64_t smtNs = std::min<int64_t>(
            (histogramSum("smt.check_us") - smtStart) * 1000, room);
        int32_t smt = tracer.span("smt.check", endPullNs, smtNs, spec, round,
                                  /*derived=*/true);
        tracer.span("sat.solve", endPullNs,
                    std::min<int64_t>(
                        (histogramSum("sat.solve_us") - satStart) * 1000,
                        smtNs),
                    smt, round, /*derived=*/true);
        tracer.span("p4.recheck", endPullNs + smtNs,
                    std::min<int64_t>(
                        static_cast<int64_t>(median(samples.recheckUs) * 1000),
                        room - smtNs),
                    spec, round, /*derived=*/true);
        for (const Interval& iv : compiles) {
          tracer.span("tofino.compile", iv.start, iv.end - iv.start, root,
                      round);
        }
        for (const Interval& iv : probe.timing().installs) {
          tracer.span("controller.install", iv.start, iv.end - iv.start, root,
                      round);
        }
      }
      if (visible < s1) {
        tracer.span("controller.checkpoint", visible, s1 - visible, root,
                    round);
      }
    }
    // Standalone timed calls on the loaded state, between loads.
    probe.sampleSnapshotAndAppend(*ctrl,
                                  flay::net::bulkRouteUpdate(0, streamSeed));
    probe.sampleCheckpoint(*ctrl);
  }

  // Every load is the same work: the run reports its best load, which host
  // noise does not move unless it covers the whole run.
  result.metric("updates_per_s", quantile(loadRate, 1), "updates/s");
  result.metric("update_p50_ms", quantile(medianUpdateMs, 0), "ms");
  result.metric("recompile_p50_ms", quantile(recompileMs, 0), "ms");
  const double chunks = histogramCount("flay.bulk_verdict_us") - chunksBefore;
  const double bypassed = counterValue("flay.bulk_bypass") - bypassBefore;
  const double analyzed = counterValue("flay.bulk_analyzed") - analyzedBefore;
  result.layer("controller.journal_records_per_update",
               (counterValue("controller.journal_records") - recordsBefore) /
                   updates,
               "count");
  result.layer("controller.journal_append_us",
               median(samples.journalAppendUs), "us");
  result.layer("controller.checkpoint_us", median(samples.checkpointUs), "us");
  result.layer("flay.snapshot_us", median(samples.snapshotUs), "us");
  result.layer("runtime.config_apply_us",
               (histogramSum("flay.config_apply_us") - applyBefore) / updates,
               "us");
  result.layer("flay.bulk_verdict_us",
               (histogramSum("flay.bulk_verdict_us") - verdictBefore) / chunks,
               "us");
  result.layer("flay.bulk_bypass_ratio", bypassed / (bypassed + analyzed),
               "ratio");
  result.layer("classifier.probe_rebuilds",
               (counterValue("flay.bulk_probe_rebuilds") - rebuildsBefore) /
                   chunks,
               "count");
  result.layer("flay.analyze_us",
               (histogramSum("flay.analyze_us") - analyzeBefore) / updates,
               "us");
  result.layer("flay.closure_us",
               (histogramSum("flay.closure_us") - closureBefore) / updates,
               "us");
  result.layer("flay.encode_us",
               (histogramSum("flay.encode_us") - encodeBefore) / updates, "us");
  result.layer("flay.digest_us",
               (histogramSum("flay.digest_us") - digestBefore) / updates, "us");
  result.layer("flay.substitute_us",
               (histogramSum("flay.substitute_us") - substituteBefore) / updates,
               "us");
  const double hits = counterValue("cache.hits") - hitsBefore;
  const double lookups = hits + (counterValue("cache.misses") - missesBefore);
  result.layer("flay.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
               "ratio");
  result.layer("expr.arena_nodes_per_update", arenaNodes / updates, "count");
  // The recompile each load ends in, per recompile.
  result.layer("flay.specialize_us",
               tracer.totalUs("flay.specialize") / recompiles, "us");
  result.layer("smt.incremental_probes",
               (counterValue("smt.incremental_probes") - probesBefore) /
                   recompiles,
               "count");
  result.layer("smt.session_rebuilds",
               (counterValue("smt.session_rebuilds") - sessionRebuildsBefore) /
                   recompiles,
               "count");
  result.layer("sat.conflicts",
               (counterValue("sat.conflicts") - conflictsBefore) / recompiles,
               "count");
  result.layer("sat.solve_us",
               (histogramSum("sat.solve_us") - solveBefore) / recompiles, "us");
  result.layer("tofino.compile_us",
               tracer.totalUs("tofino.compile") / recompiles, "us");
  result.layer("controller.install_us",
               tracer.totalUs("controller.install") / recompiles, "us");
  result.layer("p4.recheck_us", median(samples.recheckUs), "us");
  result.layer("sim.process_us", median(processUs), "us");
  result.layer("p4.load_us", tracer.totalUs("p4.load"), "us");
  reportLayers(result, tracer,
               {"controller", "flay", "runtime", "smt", "sat", "p4", "tofino"},
               "controller", updates, loadSeconds);

  // Recovery of the last load: checkpoint plus journal replay.
  const std::string liveDigest = ctrl->stateDigest();
  ctrl.reset();
  result.metric("peak_rss_mb", peakRssMb(), "MB");
  if (opts.sabotage == "journal") dropLastCommittedGroup(stateDir);
  {
    ctl::FaultTolerantController recovered(checked, nullptr,
                                           withStateDir(stateDir));
    result.check(recovered.stateDigest() == liveDigest,
                 "bulk_load: recovered controller reaches the live stateDigest");
  }
  removeTree(stateDir);
  return 0;
}

}  // namespace perfbench
