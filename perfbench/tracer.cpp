#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

// Keeps a runaway traced run from exhausting memory; spans past the cap are
// still counted in their parents' child time but not stored.
constexpr size_t kMaxSpans = 2'000'000;

std::string layerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  if (dot == nullptr) return "unattributed";
  return std::string(name, static_cast<size_t>(dot - name));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int32_t Tracer::span(const char* name, int64_t startNs, int64_t durNs,
                     int32_t parent, uint64_t seq, bool derived) {
  if (!enabled_) return kRoot;
  durNs = std::max<int64_t>(durNs, 0);
  if (parent >= 0) childNs_[static_cast<size_t>(parent)] += durNs;
  if (spans_.size() >= kMaxSpans) return kRoot;
  spans_.push_back({name, startNs, durNs, parent, derived, seq});
  childNs_.push_back(0);
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::layerSelfUs() const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int64_t self = std::max<int64_t>(spans_[i].dur - childNs_[i], 0);
    out[layerOf(spans_[i].name)] += self * 1e-3;
  }
  return out;
}

double Tracer::totalUs(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.dur * 1e-3;
  }
  return total;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"seq\":%llu,\"derived\":%s}}\n",
                 i == 0 ? "" : ",", s.name, layerOf(s.name).c_str(),
                 s.start * 1e-3, s.dur * 1e-3, i, s.parent,
                 static_cast<unsigned long long>(s.seq),
                 s.derived ? "true" : "false");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void reportLayers(Result& result, const Tracer& tracer,
                  const std::vector<std::string>& layers,
                  const std::string& rootLayer, double ops,
                  double phaseSeconds) {
  std::map<std::string, double> self = tracer.layerSelfUs();
  for (const std::string& layer : layers) {
    result.layer(layer + ".self_us", self[layer] / ops, "us");
  }
  if (!rootLayer.empty()) {
    result.layer(rootLayer + ".unattributed_us", self["unattributed"] / ops,
                 "us");
  }
  result.layer("trace.overhead_pct",
               100.0 * tracer.overheadSeconds() / phaseSeconds, "%");
}

}  // namespace perfbench
