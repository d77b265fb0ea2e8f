// acl_churn: the paper's Table 3 claim under sustained churn. middleblock's
// pre-ingress ACL is preloaded past the over-approximation threshold, then
// each step inserts a fresh 5-tuple and deletes the oldest entry through
// FaultTolerantController::apply, so the table size stays fixed and no
// update may need a recompile.
#include <deque>

#include "common.h"
#include "net/workloads.h"
#include "tracer.h"
#include "update_probe.h"

namespace perfbench {

namespace {

namespace runtime = flay::runtime;
using flay::BitVec;

constexpr const char* kAcl = "MbIngress.acl_pre_ingress";
/// A few thousand entries: far past the over-approximation threshold (100)
/// and well within the table's declared 8192.
constexpr size_t kPreload = 3000;
/// Floor on updates per run, so update_p99_ms always rests on >= 1,000
/// samples (ten beyond the percentile).
constexpr size_t kMinUpdates = 1000;

/// The i-th fresh churn entry: middleblockAclEntries' shape (same masks,
/// set_vrf) with protocol 132, which the preload never uses, and the
/// counter in the source prefix, so every churn key is new.
runtime::TableEntry churnEntry(uint64_t seed, uint64_t i) {
  uint64_t r = deriveSeed(seed, i);
  auto ternary = [](uint64_t v, uint32_t width, uint64_t mask) {
    return runtime::FieldMatch::ternary(BitVec(width, v), BitVec(width, mask));
  };
  runtime::TableEntry e;
  e.matches.push_back(ternary(((i ^ (seed & 0xFFFF)) & 0xFFFFFF) << 8, 32,
                              0xFFFFFF00u));
  e.matches.push_back(ternary(r & 0xFFFFFFFF, 32, 0xFFFF0000u));
  e.matches.push_back(ternary(132, 8, 0xFF));
  e.matches.push_back(ternary((r >> 32) & 0xFFFF, 16, 0xF000));
  e.matches.push_back(ternary((r >> 48) & 0xFFFF, 16, 0xFF00));
  e.actionName = "set_vrf";
  e.actionArgs.push_back(BitVec(10, (r >> 20) % 1024));
  e.priority = static_cast<int32_t>(kPreload + 100 + i);
  return e;
}

std::string keyOf(const runtime::TableEntry& e) {
  std::string key = std::to_string(e.priority);
  for (const auto& m : e.matches) {
    key += "|" + m.value.bitAnd(m.mask).toHexString() + "/" +
           m.mask.toHexString();
  }
  return key;
}

struct Installed {
  uint64_t id;
  std::string key;
};

}  // namespace

int runAclChurn(const Options& opts, Result& result, Tracer& tracer) {
  const std::string stateDir = opts.stateDir + "/acl_churn";
  flay::p4::CheckedProgram checked = loadProgram("middleblock", tracer);
  freshDir(stateDir);
  Samples samples;
  UpdateProbe probe(tracer, samples, opts.stateDir + "/acl_churn-scratch");
  auto ctrl = std::make_unique<ctl::FaultTolerantController>(
      checked, probe.device(), withStateDir(stateDir));
  probe.attach(*ctrl);

  // The preload goes through the controller's journaled bulk path.
  std::vector<runtime::Update> preload =
      flay::net::middleblockAclEntries(kPreload, deriveSeed(opts.seed, 1));
  ctl::BulkApplyResult loaded = ctrl->applyBulk(preload);
  const runtime::TableState& acl = ctrl->service().config().table(kAcl);
  std::deque<Installed> model;
  for (const runtime::TableEntry& e : acl.entries()) {
    model.push_back({e.id, keyOf(e)});
  }
  if (!result.check(loaded.report.applied == kPreload && model.size() == kPreload,
                    "acl_churn: preload installed every entry")) {
    return 1;
  }
  recordSetup(result);

  std::vector<double> latencyUs;
  uint64_t seq = 0;
  uint64_t fresh = 0;
  bool ok = true;
  double checkSeconds = 0;
  const uint64_t recordsBefore = counterValue("controller.journal_records");
  const uint64_t digestBefore = histogramSum("flay.digest_us");
  const uint64_t analyzeBefore = histogramSum("flay.analyze_us");
  const uint64_t applyBefore = histogramSum("flay.config_apply_us");
  const double overheadBefore = tracer.overheadSeconds();
  Clock::time_point phaseStart = Clock::now();

  auto applyOne = [&](const runtime::Update& u) {
    if (tracer.enabled() && seq % 32 == 0) probe.sampleSnapshotAndAppend(*ctrl, u);
    if (tracer.enabled() && seq % 128 == 0) probe.sampleCheckpoint(*ctrl);
    ctl::ApplyResult r;
    ++result.attempted;
    latencyUs.push_back(probe.apply(*ctrl, u, seq++, &r));
    // Above the threshold with the action set and key shapes unchanged, a
    // churn update is semantics-preserving: it never needs a recompile.
    ok &= result.check(!r.verdict.needsRecompilation && r.deviceCurrent,
                       "acl_churn: update " + std::to_string(seq) +
                           " needed no recompile and reached the device");
  };

  while (ok && (secondsSince(phaseStart) < opts.seconds ||
                latencyUs.size() < kMinUpdates)) {
    runtime::TableEntry e = churnEntry(deriveSeed(opts.seed, 2), fresh++);
    std::string key = keyOf(e);
    uint64_t id = acl.nextId();
    applyOne(runtime::Update::insert(kAcl, std::move(e)));
    applyOne(runtime::Update::remove(kAcl, model.front().id));
    Clock::time_point c0 = Clock::now();
    model.pop_front();
    model.push_back({id, std::move(key)});
    // Entries keep insertion order, so the ids must match the model in
    // order; the inserted entry's key must be the model's.
    bool same = acl.size() == model.size();
    for (size_t i = 0; same && i < model.size(); ++i) {
      same = acl.entries()[i].id == model[i].id;
    }
    same = same && keyOf(acl.entries().back()) == model.back().key;
    ok &= result.check(same, "acl_churn: ACL holds the model's keys after pair " +
                                 std::to_string(fresh));
    checkSeconds += secondsSince(c0);
  }
  double phaseSeconds = secondsSince(phaseStart) - checkSeconds -
                        (tracer.overheadSeconds() - overheadBefore);
  const double updates = static_cast<double>(latencyUs.size());

  // Full key comparison at the end of the run.
  bool keysMatch = acl.size() == model.size();
  for (size_t i = 0; keysMatch && i < model.size(); ++i) {
    keysMatch = keyOf(acl.entries()[i]) == model[i].key;
  }
  result.check(keysMatch, "acl_churn: final ACL keys equal the model");

  result.metric("updates_per_s", updates / phaseSeconds, "updates/s");
  result.metric("update_p50_ms", quantile(latencyUs, 0.50) / 1000, "ms");
  result.metric("update_p99_ms", quantile(latencyUs, 0.99) / 1000, "ms");
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
  result.layer("flay.analyze_us",
               (histogramSum("flay.analyze_us") - analyzeBefore) / updates,
               "us");
  result.layer("runtime.config_apply_us",
               (histogramSum("flay.config_apply_us") - applyBefore) / updates,
               "us");
  result.layer("p4.load_us", tracer.totalUs("p4.load"), "us");
  reportLayers(result, tracer, {"controller", "flay", "runtime"}, "controller",
               updates, phaseSeconds);

  // Recovery: checkpoint plus journal replay must reach the live digest.
  const std::string liveDigest = ctrl->stateDigest();
  ctrl.reset();
  result.metric("peak_rss_mb", peakRssMb(), "MB");
  if (opts.sabotage == "journal") dropLastCommittedGroup(stateDir);
  {
    ctl::FaultTolerantController recovered(
        checked, nullptr, withStateDir(stateDir));
    result.check(recovered.stateDigest() == liveDigest,
                 "acl_churn: recovered controller reaches the live stateDigest");
  }
  removeTree(stateDir);
  return 0;
}

}  // namespace perfbench
