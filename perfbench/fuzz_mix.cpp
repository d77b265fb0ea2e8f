// fuzz_mix: semantics-changing update streams. Independent
// net::fuzzUpdateSequence streams over the paper's programs run one after
// another, each through a fresh FaultTolerantController, one apply per
// update; about a fifth of the updates need specialize + recheck + compile
// + install. This drives Specializer, CheckEngine, the verdict cache,
// smt/sat, arena growth and tofino while tables stay small.
//
// The streams are pinned (program, length, fuzz seed), not drawn from
// --seed: the scion stream reproduces the verdict-cache memory blowup at a
// known size, and a drawn stream could hide it or grow it past the
// machine's memory. --seed picks the packet samples of the checks.
#include <memory>

#include "common.h"
#include "flay/specializer.h"
#include "net/fuzzer.h"
#include "sim/interpreter.h"
#include "tracer.h"
#include "update_probe.h"

namespace perfbench {

namespace {

namespace runtime = flay::runtime;
namespace sim = flay::sim;

struct Stream {
  const char* program;
  size_t length;
  uint64_t fuzzSeed;
};

/// Lengths are set against the verdict-cache fault: scion's stream crosses
/// its first blowup update near #670 (peak RSS ~1 GB at 675; 650 stays
/// under 10 MB, 700 reaches 1.7 GB), switch's grows past 1.5 GB by 150.
constexpr Stream kStreams[] = {
    {"middleblock", 300, 1}, {"dash", 300, 1},   {"accturbo", 200, 1},
    {"switch", 125, 1},      {"scion", 675, 1},
};

/// Packets forwarded through both programs after every recompile.
constexpr size_t kCheckPackets = 16;

struct StreamRecord {
  std::vector<bool> needsRecompile;
  std::string digest;
};

/// A stream's fastest pass over a run: its update time (checks and tracing
/// excluded) and the apply() latencies of that pass.
struct Pass {
  double seconds = 0;
  std::vector<double> latencyUs;
  std::vector<double> recompileUs;
};

/// Replays `updates` on a controller with the verdict cache and incremental
/// SAT off; its verdicts and digest are the reference for the timed run.
StreamRecord referenceReplay(const flay::p4::CheckedProgram& checked,
                             const std::vector<runtime::Update>& updates) {
  ctl::SimulatedDevice device;
  ctl::ControllerOptions options;
  options.specializer.useVerdictCache = false;
  options.specializer.incrementalSat = false;
  ctl::FaultTolerantController ctrl(checked, &device, options);
  StreamRecord record;
  for (const runtime::Update& u : updates) {
    record.needsRecompile.push_back(ctrl.apply(u).verdict.needsRecompilation);
  }
  record.digest = ctrl.stateDigest();
  return record;
}

}  // namespace

int runFuzzMix(const Options& opts, Result& result, Tracer& tracer) {
  const std::string stateRoot = opts.stateDir + "/fuzz_mix";
  std::vector<flay::p4::CheckedProgram> programs;
  std::vector<std::vector<runtime::Update>> streams;
  programs.reserve(std::size(kStreams));
  for (const Stream& s : kStreams) {
    programs.push_back(loadProgram(s.program, tracer));
    streams.push_back(
        flay::net::fuzzUpdateSequence(programs.back(), s.length, s.fuzzSeed));
  }
  freshDir(stateRoot);
  recordSetup(result);

  std::vector<double> latencyUs;
  std::vector<double> recompileUs;
  std::vector<double> processUs;  // the checks' packets on installed programs
  std::vector<StreamRecord> live(std::size(kStreams));
  std::vector<StreamRecord> firstRound;
  Samples samples;
  double arenaNodes = 0;
  double checkSeconds = 0;
  uint64_t seq = 0;
  bool ok = true;
  const uint64_t hitsBefore = counterValue("cache.hits");
  const uint64_t missesBefore = counterValue("cache.misses");
  const uint64_t probesBefore = counterValue("smt.incremental_probes");
  const uint64_t rebuildsBefore = counterValue("smt.session_rebuilds");
  const uint64_t conflictsBefore = counterValue("sat.conflicts");
  const uint64_t solveBefore = histogramSum("sat.solve_us");
  const uint64_t analyzeBefore = histogramSum("flay.analyze_us");
  const uint64_t closureBefore = histogramSum("flay.closure_us");
  const uint64_t encodeBefore = histogramSum("flay.encode_us");
  const uint64_t substituteBefore = histogramSum("flay.substitute_us");
  const uint64_t digestBefore = histogramSum("flay.digest_us");
  const uint64_t applyBefore = histogramSum("flay.config_apply_us");
  const uint64_t recordsBefore = counterValue("controller.journal_records");
  const double overheadBefore = tracer.overheadSeconds();
  Clock::time_point phaseStart = Clock::now();

  // Whole rounds of every stream, until the run's time is spent. Every pass
  // of a stream is the same work on a fresh controller, so the run keeps
  // each stream's fastest pass and takes every end-to-end figure from
  // those: host noise moves a figure only when it covers every pass of a
  // stream.
  std::vector<Pass> fastest(std::size(kStreams));
  for (size_t round = 0; ok && (round == 0 || secondsSince(phaseStart) <
                                                   opts.seconds);
       ++round) {
    const size_t firstUpdate = latencyUs.size();
    const double checkBefore = checkSeconds;
    const double roundOverheadBefore = tracer.overheadSeconds();
    Clock::time_point roundStart = Clock::now();
    const double cpuStart = threadCpuSeconds();
    for (size_t k = 0; ok && k < std::size(kStreams); ++k) {
      const flay::p4::CheckedProgram& checked = programs[k];
      const std::string stateDir = stateRoot + "/" + kStreams[k].program;
      freshDir(stateDir);
      UpdateProbe probe(tracer, samples, stateRoot + "/scratch");
      auto ctrl = std::make_unique<ctl::FaultTolerantController>(
          checked, probe.device(), withStateDir(stateDir));
      probe.attach(*ctrl);
      flay::net::PacketFuzzer packets(checked, ctrl->service().config(),
                                      deriveSeed(opts.seed, k));
      const size_t nodesBefore = ctrl->service().arena().numNodes();
      const size_t updatesBefore = latencyUs.size();
      const size_t recompilesBefore = recompileUs.size();
      const double streamCheckBefore = checkSeconds;
      const double streamOverheadBefore = tracer.overheadSeconds();
      Clock::time_point streamStart = Clock::now();
      StreamRecord& record = live[k];
      record = {};

      for (const runtime::Update& u : streams[k]) {
        if (tracer.enabled() && seq % 32 == 0) {
          probe.sampleSnapshotAndAppend(*ctrl, u);
        }
        if (tracer.enabled() && seq % 128 == 0) probe.sampleCheckpoint(*ctrl);
        ctl::ApplyResult r;
        ++result.attempted;
        double us = 0;
        try {
          us = probe.apply(*ctrl, u, seq++, &r);
        } catch (const std::exception& e) {
          ++result.failed;
          ok = result.check(false, std::string("fuzz_mix: update rejected: ") +
                                       e.what());
          break;
        }
        latencyUs.push_back(us);
        record.needsRecompile.push_back(r.verdict.needsRecompilation);
        ok &= result.check(r.deviceCurrent, "fuzz_mix: update reached the device");
        if (!r.verdict.needsRecompilation) continue;
        recompileUs.push_back(us);
        probe.sampleRecheck(ctrl->deviceProgram());
        if (round > 0) continue;

        // After every recompile of the first round: the installed program
        // under its migrated config forwards a packet sample exactly like
        // the original program under the controller's config. Later rounds
        // repeat the same streams on fresh controllers and are checked
        // against the first round's verdicts and digest instead.
        Clock::time_point c0 = Clock::now();
        const flay::p4::CheckedProgram& installed = ctrl->deviceProgram();
        runtime::DeviceConfig migrated =
            flay::flay::migrateConfig(installed, ctrl->deviceConfig());
        sim::DataPlaneState origState(checked);
        sim::DataPlaneState specState(installed);
        sim::Interpreter original(checked, ctrl->deviceConfig(), origState);
        sim::Interpreter specialized(installed, migrated, specState);
        for (size_t i = 0; i < kCheckPackets; ++i) {
          sim::Packet p = packets.randomPacket();
          sim::ExecResult expected = original.process(p);
          Clock::time_point p0 = Clock::now();
          sim::ExecResult got = specialized.process(p);
          processUs.push_back(microsBetween(p0, Clock::now()));
          ok &= result.check(
              sameForwarding(expected, got),
              "fuzz_mix: " + std::string(kStreams[k].program) +
                  " installed program forwards like the original after "
                  "update " + std::to_string(record.needsRecompile.size()));
        }
        checkSeconds += secondsSince(c0);
      }
      arenaNodes += static_cast<double>(ctrl->service().arena().numNodes() -
                                        nodesBefore);

      const double passSeconds =
          secondsSince(streamStart) - (checkSeconds - streamCheckBefore) -
          (tracer.overheadSeconds() - streamOverheadBefore);
      if (ok && (round == 0 || passSeconds < fastest[k].seconds)) {
        fastest[k] = {passSeconds,
                      {latencyUs.begin() + updatesBefore, latencyUs.end()},
                      {recompileUs.begin() + recompilesBefore,
                       recompileUs.end()}};
      }
      if (round == 0) {
        std::fprintf(stderr,
                     "fuzz_mix: %-11s %zu updates, %zu recompiles, %.2f s, "
                     "rss %.0f MB at stream end\n",
                     kStreams[k].program, latencyUs.size() - updatesBefore,
                     recompileUs.size() - recompilesBefore,
                     secondsSince(streamStart), currentRssMb());
      }
      Clock::time_point c0 = Clock::now();
      record.digest = ctrl->stateDigest();
      ctrl.reset();
      if (round == 0) {
        // Recovery replays the journal through the verdict cache and takes
        // as long as the stream itself: once per stream, on the first
        // round's journal.
        ctl::FaultTolerantController recovered(checked, nullptr,
                                               withStateDir(stateDir));
        ok &= result.check(recovered.stateDigest() == record.digest,
                           std::string("fuzz_mix: ") + kStreams[k].program +
                               " recovered controller reaches the live digest");
      } else {
        ok &= result.check(
            record.needsRecompile == firstRound[k].needsRecompile &&
                record.digest == firstRound[k].digest,
            std::string("fuzz_mix: ") + kStreams[k].program + " round " +
                std::to_string(round) +
                " repeats the first round's verdicts and stateDigest");
      }
      removeTree(stateDir);
      checkSeconds += secondsSince(c0);
    }
    if (!ok) break;
    if (round == 0) firstRound = live;
    const double roundSeconds =
        secondsSince(roundStart) - (checkSeconds - checkBefore) -
        (tracer.overheadSeconds() - roundOverheadBefore);
    // A round's thread CPU time against its wall time shows how much of it
    // the host took away (fsync waits keep it below 1 on a quiet host).
    std::fprintf(stderr,
                 "fuzz_mix: round %zu: %.1f updates/s, %.2f s checks, cpu/wall "
                 "%.3f\n",
                 round, (latencyUs.size() - firstUpdate) / roundSeconds,
                 checkSeconds - checkBefore,
                 (threadCpuSeconds() - cpuStart) / secondsSince(roundStart));
  }
  const double phaseSeconds = secondsSince(phaseStart) - checkSeconds -
                              (tracer.overheadSeconds() - overheadBefore);
  const double updates = static_cast<double>(latencyUs.size());
  const double recompiles = std::max<double>(1, recompileUs.size());

  // Every figure comes from the streams' fastest passes (see the loop).
  double fastestSeconds = 0;
  std::vector<double> fastestLatencyUs;
  std::vector<double> fastestRecompileUs;
  for (const Pass& pass : fastest) {
    fastestSeconds += pass.seconds;
    fastestLatencyUs.insert(fastestLatencyUs.end(), pass.latencyUs.begin(),
                            pass.latencyUs.end());
    fastestRecompileUs.insert(fastestRecompileUs.end(),
                              pass.recompileUs.begin(), pass.recompileUs.end());
  }
  result.metric("updates_per_s", fastestLatencyUs.size() / fastestSeconds,
                "updates/s");
  result.metric("update_p50_ms", median(fastestLatencyUs) / 1000, "ms");
  // Reported on stderr only: across runs on this host its spread reaches
  // the largest bound a benchmark metric may have (see README).
  std::fprintf(stderr, "fuzz_mix: update_p99_ms %.4f (fastest passes)\n",
               quantile(fastestLatencyUs, 0.99) / 1000);
  result.metric("recompile_p50_ms", median(fastestRecompileUs) / 1000, "ms");
  result.metric("peak_rss_mb", peakRssMb(), "MB");

  const double hits = counterValue("cache.hits") - hitsBefore;
  const double lookups = hits + (counterValue("cache.misses") - missesBefore);
  result.layer("controller.journal_records_per_update",
               (counterValue("controller.journal_records") - recordsBefore) /
                   updates,
               "count");
  result.layer("controller.journal_append_us",
               median(samples.journalAppendUs), "us");
  result.layer("controller.checkpoint_us", median(samples.checkpointUs), "us");
  result.layer("flay.snapshot_us", median(samples.snapshotUs), "us");
  result.layer("flay.digest_us",
               (histogramSum("flay.digest_us") - digestBefore) / updates, "us");
  result.layer("runtime.config_apply_us",
               (histogramSum("flay.config_apply_us") - applyBefore) / updates,
               "us");
  result.layer("sim.process_us", median(processUs), "us");
  result.layer("controller.install_us",
               tracer.totalUs("controller.install") / recompiles, "us");
  result.layer("flay.analyze_us",
               (histogramSum("flay.analyze_us") - analyzeBefore) / updates,
               "us");
  result.layer("flay.closure_us",
               (histogramSum("flay.closure_us") - closureBefore) / updates,
               "us");
  result.layer("flay.encode_us",
               (histogramSum("flay.encode_us") - encodeBefore) / updates, "us");
  result.layer("flay.substitute_us",
               (histogramSum("flay.substitute_us") - substituteBefore) / updates,
               "us");
  result.layer("flay.specialize_us",
               tracer.totalUs("flay.specialize") / recompiles, "us");
  result.layer("flay.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
               "ratio");
  result.layer("expr.arena_nodes_per_update", arenaNodes / updates, "count");
  result.layer("smt.incremental_probes",
               (counterValue("smt.incremental_probes") - probesBefore) /
                   recompiles,
               "count");
  result.layer("smt.session_rebuilds",
               (counterValue("smt.session_rebuilds") - rebuildsBefore) /
                   recompiles,
               "count");
  result.layer("sat.conflicts",
               (counterValue("sat.conflicts") - conflictsBefore) / recompiles,
               "count");
  result.layer("sat.solve_us",
               (histogramSum("sat.solve_us") - solveBefore) / recompiles, "us");
  result.layer("tofino.compile_us",
               tracer.totalUs("tofino.compile") / recompiles, "us");
  result.layer("p4.load_us", tracer.totalUs("p4.load"), "us");
  result.layer("p4.recheck_us", median(samples.recheckUs), "us");
  reportLayers(result, tracer,
               {"controller", "flay", "runtime", "smt", "sat", "p4", "tofino"},
               "controller", updates, phaseSeconds);

  // The bulk path on the same streams, for its per-layer figures: each
  // stream loaded once through FlayService::bulkLoad on a fresh service,
  // after the measured phase and every figure above. The streams' tables
  // stay below the over-approximation threshold, so nothing bypasses.
  if (tracer.enabled()) {
    const uint64_t verdictBefore = histogramSum("flay.bulk_verdict_us");
    const uint64_t chunksBefore = histogramCount("flay.bulk_verdict_us");
    const uint64_t bypassBefore = counterValue("flay.bulk_bypass");
    const uint64_t bulkAnalyzedBefore = counterValue("flay.bulk_analyzed");
    const uint64_t bulkRebuildsBefore =
        counterValue("flay.bulk_probe_rebuilds");
    for (size_t k = 0; k < std::size(kStreams); ++k) {
      flay::flay::FlayService service(programs[k]);
      service.bulkLoad(streams[k]);
    }
    const double chunks =
        histogramCount("flay.bulk_verdict_us") - chunksBefore;
    const double bypassed = counterValue("flay.bulk_bypass") - bypassBefore;
    const double analyzed =
        counterValue("flay.bulk_analyzed") - bulkAnalyzedBefore;
    result.layer("flay.bulk_verdict_us",
                 (histogramSum("flay.bulk_verdict_us") - verdictBefore) /
                     chunks,
                 "us");
    result.layer("flay.bulk_bypass_ratio",
                 bypassed + analyzed > 0 ? bypassed / (bypassed + analyzed) : 0,
                 "ratio");
    result.layer("classifier.probe_rebuilds",
                 (counterValue("flay.bulk_probe_rebuilds") -
                  bulkRebuildsBefore) /
                     chunks,
                 "count");
  }

  // Verdicts and digests must not depend on the verdict cache or the warm
  // SAT sessions: compare against a replay with both off (untimed).
  if (opts.sabotage == "verdict" && !live.back().needsRecompile.empty()) {
    live.back().needsRecompile[0] = !live.back().needsRecompile[0];
  }
  for (size_t k = 0; ok && k < std::size(kStreams); ++k) {
    StreamRecord ref = referenceReplay(programs[k], streams[k]);
    result.check(ref.needsRecompile == live[k].needsRecompile,
                 std::string("fuzz_mix: ") + kStreams[k].program +
                     " per-update recompile verdicts match the cache-off "
                     "replay");
    result.check(ref.digest == live[k].digest,
                 std::string("fuzz_mix: ") + kStreams[k].program +
                     " final stateDigest matches the cache-off replay");
  }
  removeTree(stateRoot);
  return 0;
}

}  // namespace perfbench
