// forward: per-packet table lookup and interpretation with the control
// plane idle. bulkroute carries a FIB of about ten thousand routes plus ACL
// entries, and vrf_assign maps the traffic's sources to the routes' VRF
// (without it every packet stays at VRF 0 and every route lookup misses).
// Set-up specializes the program; a pre-generated uniform TrafficMixer
// stream then goes through sim::Interpreter on the specialized program and
// its migrated config, in-process (no link, no loopback).
#include <unordered_map>

#include "common.h"
#include "flay/specializer.h"
#include "net/mix.h"
#include "net/workloads.h"
#include "tracer.h"

namespace perfbench {

namespace {

namespace runtime = flay::runtime;
namespace sim = flay::sim;
using flay::BitVec;

/// Route stream indices installed: every 64th bulkRouteUpdate is an ACL
/// entry, the rest are routes in VRF 1.
constexpr size_t kFibUpdates = 10240;
/// Sources mapped to VRF 1 by vrf_assign.
constexpr size_t kSources = 64;
/// Packets pre-generated; a run cycles through them in whole batches.
constexpr size_t kPool = 16384;
constexpr size_t kBatch = 64;
/// Every kSampleEvery-th packet is checked against the reference.
constexpr size_t kSampleEvery = 8;

/// The benchmark's own model of what it installed: longest-prefix match
/// over the routes, priority order over the ACL.
struct Reference {
  std::unordered_map<uint64_t, uint16_t> vrf;  // eth.src -> VRF
  // routes[plen]: prefix -> nexthop (all routes are in VRF 1)
  std::vector<std::unordered_map<uint32_t, uint16_t>> routes =
      std::vector<std::unordered_map<uint32_t, uint16_t>>(33);
  struct Acl {
    uint32_t src, srcMask, dst, dstMask;
    int32_t priority;
    bool permit;
  };
  std::vector<Acl> acl;

  uint16_t nexthop(uint64_t ethSrc, uint32_t dst) const {
    auto v = vrf.find(ethSrc);
    if (v == vrf.end() || v->second != 1) return 0;
    for (int plen = 32; plen >= 0; --plen) {
      uint32_t mask = plen == 0 ? 0 : ~uint32_t{0} << (32 - plen);
      auto it = routes[plen].find(dst & mask);
      if (it != routes[plen].end()) return it->second;
    }
    return 0;
  }
  /// meta.acl_verdict after the ACL: 1 permit, 2 deny, 0 no entry.
  uint64_t aclVerdict(uint32_t src, uint32_t dst) const {
    const Acl* best = nullptr;
    for (const Acl& a : acl) {
      if ((src & a.srcMask) != (a.src & a.srcMask)) continue;
      if ((dst & a.dstMask) != (a.dst & a.dstMask)) continue;
      if (best == nullptr || a.priority > best->priority) best = &a;
    }
    return best == nullptr ? 0 : (best->permit ? 1 : 2);
  }
};

uint64_t bytesAt(const std::vector<uint8_t>& b, size_t at, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) v = (v << 8) | b[at + i];
  return v;
}

/// Long enough for eth + ipv4 and typed IPv4: the packets that reach the
/// tables.
bool isIpv4(const std::vector<uint8_t>& b) {
  return b.size() >= 34 && bytesAt(b, 12, 2) == 0x0800;
}

struct Outcome {
  bool accepted;
  bool dropped;
  uint32_t port;
  std::vector<uint8_t> bytes;
};

}  // namespace

int runForward(const Options& opts, Result& result, Tracer& tracer) {
  flay::p4::CheckedProgram checked = loadProgram("bulkroute", tracer);
  const uint64_t streamSeed = deriveSeed(opts.seed, 4);

  // Control plane: VRF sources, then the FIB and ACL stream.
  Reference ref;
  std::vector<runtime::Update> updates;
  std::vector<uint64_t> sources;
  for (size_t i = 0; i < kSources; ++i) {
    uint64_t mac = deriveSeed(opts.seed, 100 + i) & 0xFFFFFFFFFFFFull;
    if (!ref.vrf.emplace(mac, 1).second) continue;
    sources.push_back(mac);
    runtime::TableEntry e;
    e.matches.push_back(runtime::FieldMatch::exact(BitVec(48, mac)));
    e.actionName = "set_vrf";
    e.actionArgs.push_back(BitVec(16, 1));
    updates.push_back(runtime::Update::insert("BulkIngress.vrf_assign", e));
  }
  for (size_t i = 0; i < kFibUpdates; ++i) {
    runtime::Update u = flay::net::bulkRouteUpdate(i, streamSeed);
    const auto& m = u.entry.matches;
    if (u.target == "BulkIngress.routes") {
      uint32_t plen = m[1].prefixLen;
      ref.routes[plen][static_cast<uint32_t>(m[1].value.toUint64())] =
          static_cast<uint16_t>(u.entry.actionArgs[0].toUint64());
    } else {
      ref.acl.push_back({static_cast<uint32_t>(m[0].value.toUint64()),
                         static_cast<uint32_t>(m[0].mask.toUint64()),
                         static_cast<uint32_t>(m[1].value.toUint64()),
                         static_cast<uint32_t>(m[1].mask.toUint64()),
                         u.entry.priority, u.entry.actionName == "permit"});
    }
    updates.push_back(std::move(u));
  }
  flay::flay::FlayService service(checked);
  flay::flay::BulkLoadReport loaded = service.bulkLoad(updates);
  if (!result.check(loaded.applied == updates.size(),
                    "forward: every control-plane entry installed")) {
    return 1;
  }
  flay::flay::Specializer specializer(service);
  flay::p4::CheckedProgram specialized =
      flay::flay::recheck(specializer.specialize().program);
  runtime::DeviceConfig migrated =
      flay::flay::migrateConfig(specialized, service.config());
  // The uniform stream is steered onto every 8th route and the ACL (the
  // mixer's key steering scans every installed entry per packet, so a
  // subset keeps set-up short); each IPv4 packet then takes one of the
  // sources vrf_assign maps to VRF 1.
  std::vector<sim::Packet> pool;
  pool.reserve(kPool);
  {
    runtime::DeviceConfig steer(checked);
    for (size_t i = 0; i < kFibUpdates; i += 8) {
      steer.apply(updates[sources.size() + i]);
    }
    for (size_t i = 63; i < kFibUpdates; i += 64) {
      steer.apply(updates[sources.size() + i]);
    }
    flay::net::TrafficMixer mixer(checked, steer,
                                  flay::net::TrafficMix::kUniform,
                                  deriveSeed(opts.seed, 5));
    for (size_t i = 0; i < kPool; ++i) {
      sim::Packet p = mixer.next();
      if (isIpv4(p.bytes)) {
        uint64_t mac = sources[deriveSeed(opts.seed, 6 + i) % sources.size()];
        for (size_t k = 0; k < 6; ++k) {
          p.bytes[6 + k] = static_cast<uint8_t>(mac >> (8 * (5 - k)));
        }
      }
      pool.push_back(std::move(p));
    }
  }
  sim::DataPlaneState state(specialized);
  sim::Interpreter interpreter(specialized, migrated, state);
  recordSetup(result);

  // Standalone lookups (traced runs): the FIB and ACL keys of a packet on
  // the specialized program's tables.
  const runtime::TableState* fib =
      migrated.hasTable("BulkIngress.routes") ? &migrated.table("BulkIngress.routes")
                                              : nullptr;
  const runtime::TableState* aclTable =
      migrated.hasTable("BulkIngress.acl") ? &migrated.table("BulkIngress.acl")
                                           : nullptr;
  std::vector<double> lookupUs;
  // Keeps the timed lookups from being optimized away.
  const runtime::TableEntry* volatile lookupSink = nullptr;
  auto sampleLookup = [&](const sim::Packet& p) {
    const auto& b = p.bytes;
    if (!isIpv4(b)) return;
    OverheadScope overhead(tracer);
    auto v = ref.vrf.find(bytesAt(b, 6, 6));
    BitVec vrf(16, v == ref.vrf.end() ? 0 : v->second);
    std::vector<BitVec> fibKey{vrf, BitVec(32, bytesAt(b, 30, 4))};
    std::vector<BitVec> aclKey{BitVec(32, bytesAt(b, 26, 4)),
                               BitVec(32, bytesAt(b, 30, 4))};
    Clock::time_point t0 = Clock::now();
    if (fib != nullptr) lookupSink = fib->lookup(fibKey);
    if (aclTable != nullptr) lookupSink = aclTable->lookup(aclKey);
    lookupUs.push_back(microsBetween(t0, Clock::now()));
  };

  std::vector<Outcome> outcomes;
  outcomes.reserve(kPool);
  size_t processed = 0;
  size_t forwarded = 0;
  bool ok = true;
  const double overheadBefore = tracer.overheadSeconds();
  Clock::time_point phaseStart = Clock::now();
  while (ok && (processed == 0 || secondsSince(phaseStart) < opts.seconds)) {
    for (size_t i = 0; i < kBatch; ++i, ++processed) {
      const size_t index = processed % kPool;
      const sim::Packet& packet = pool[index];
      if (tracer.enabled() && processed % 32 == 0) {
        sampleLookup(packet);
      }
      int64_t start = tracer.enabled() ? tracer.nowNs() : 0;
      sim::ExecResult r = interpreter.process(packet);
      if (tracer.enabled()) {
        OverheadScope overhead(tracer);
        int64_t end = tracer.nowNs();
        int32_t span = tracer.span("sim.process", start, end - start,
                                   Tracer::kRoot, processed);
        // The packet's FIB and ACL lookups, priced by the sampled
        // standalone lookups.
        int64_t lookupNs =
            isIpv4(packet.bytes) ? static_cast<int64_t>(1000 * median(lookupUs))
                                 : 0;
        tracer.span("runtime.lookup", start,
                    std::min<int64_t>(lookupNs, end - start),
                    span, processed, /*derived=*/true);
      }
      forwarded += r.dropped ? 0 : 1;
      if (processed < kPool) {
        outcomes.push_back({r.parserAccepted, r.dropped, r.egressPort,
                            std::move(r.outputBytes)});
      } else {
        // A pass over the pool repeats: the same packet must forward the
        // same way again.
        const Outcome& first = outcomes[index];
        ok &= result.check(first.dropped == r.dropped &&
                               (r.dropped || (first.port == r.egressPort &&
                                              first.bytes == r.outputBytes)),
                           "forward: repeated packet forwards the same way");
      }
    }
  }
  const double phaseSeconds = secondsSince(phaseStart) -
                              (tracer.overheadSeconds() - overheadBefore);
  result.attempted = processed;
  std::fprintf(stderr, "forward: %zu packets, %.1f%% forwarded\n", processed,
               100.0 * forwarded / processed);

  result.metric("packets_per_s", processed / phaseSeconds, "packets/s");
  result.metric("peak_rss_mb", peakRssMb(), "MB");
  result.layer("sim.process_us", tracer.totalUs("sim.process") / processed,
               "us");
  result.layer("runtime.lookup_us", median(lookupUs), "us");
  result.layer("p4.load_us", tracer.totalUs("p4.load"), "us");
  reportLayers(result, tracer, {"sim", "runtime"}, "", processed, phaseSeconds);

  // Every processed packet: the specialized program forwards exactly like
  // the original; every kSampleEvery-th also matches the reference.
  if (opts.sabotage == "packet") {
    for (Outcome& o : outcomes) {
      if (!o.dropped && !o.bytes.empty()) {
        o.bytes[0] ^= 0x01;
        break;
      }
    }
  }
  sim::DataPlaneState origState(checked);
  sim::Interpreter original(checked, service.config(), origState);
  size_t mismatches = 0;
  size_t refMismatches = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    sim::ExecResult o = original.process(pool[i]);
    const Outcome& s = outcomes[i];
    bool same = o.parserAccepted == s.accepted && o.dropped == s.dropped &&
                (o.dropped || (o.egressPort == s.port && o.outputBytes == s.bytes));
    mismatches += same ? 0 : 1;
    const auto& b = pool[i].bytes;
    if (i % kSampleEvery != 0 || !isIpv4(b)) {
      continue;
    }
    uint16_t nh = ref.nexthop(bytesAt(b, 6, 6),
                              static_cast<uint32_t>(bytesAt(b, 30, 4)));
    bool portOk = nh == 0 ? s.dropped : (!s.dropped && s.port == (nh & 255u));
    auto verdict = o.fields.find("meta.acl_verdict");
    bool aclOk = verdict != o.fields.end() &&
                 verdict->second.toUint64() ==
                     ref.aclVerdict(static_cast<uint32_t>(bytesAt(b, 26, 4)),
                                    static_cast<uint32_t>(bytesAt(b, 30, 4)));
    refMismatches += portOk && aclOk ? 0 : 1;
  }
  result.check(mismatches == 0,
               "forward: specialized and original programs agree on every "
               "packet (" + std::to_string(mismatches) + " differ)");
  result.check(refMismatches == 0,
               "forward: sampled egress ports and ACL verdicts match the "
               "reference (" + std::to_string(refMismatches) + " differ)");
  return 0;
}

}  // namespace perfbench
