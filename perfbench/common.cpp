#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/workloads.h"
#include "obs/obs.h"
#include "tracer.h"

namespace perfbench {

namespace {

// Captured during static initialization, before main(): the cold set-up
// time is measured from here.
const Clock::time_point kProcessStart = Clock::now();

std::string formatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit, false}});
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  metrics_.push_back({name, {value, unit, true}});
}

bool Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failedChecks_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << metricsJson(traced_) << "}";
  return out.str();
}

std::string Result::metricsJson(bool perLayer) const {
  std::ostringstream out;
  out << "{";
  const char* sep = "";
  for (const auto& [name, m] : metrics_) {
    if (m.perLayer != perLayer) continue;
    double v = std::isfinite(m.value) ? m.value : 0.0;
    out << sep << "\"" << name << "\": {\"value\": " << formatNumber(v)
        << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  out << "}";
  return out.str();
}

std::string Result::table() const {
  std::ostringstream out;
  for (const auto& [name, m] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-9s %-40s %14.4f %s\n",
                  m.perLayer ? "layer" : (traced_ ? "e2e(tr)" : "e2e"),
                  name.c_str(), m.value, m.unit.c_str());
    out << line;
  }
  return out.str();
}

double secondsSinceProcessStart() { return secondsSince(kProcessStart); }

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  uint64_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * getpagesize() / (1024.0 * 1024.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t deriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void freshDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

flay::p4::CheckedProgram loadProgram(const std::string& name, Tracer& tracer) {
  int64_t start = tracer.nowNs();
  flay::p4::CheckedProgram checked =
      flay::p4::loadProgramFromFile(flay::net::programPath(name));
  tracer.span("p4.load", start, tracer.nowNs() - start, Tracer::kRoot, 0);
  return checked;
}

uint64_t counterValue(const char* name) {
  return flay::obs::Registry::global().counter(name).value();
}

uint64_t histogramSum(const char* name) {
  return flay::obs::Registry::global().histogram(name).sum();
}

uint64_t histogramCount(const char* name) {
  return flay::obs::Registry::global().histogram(name).count();
}

void recordSetup(Result& result) {
  result.metric("setup_s", secondsSinceProcessStart(), "s");
}

bool sameForwarding(const flay::sim::ExecResult& a,
                    const flay::sim::ExecResult& b) {
  if (a.parserAccepted != b.parserAccepted || a.dropped != b.dropped) {
    return false;
  }
  if (a.dropped) return true;
  return a.egressPort == b.egressPort && a.outputBytes == b.outputBytes;
}

void dropLastCommittedGroup(const std::string& stateDir) {
  const std::string path = stateDir + "/journal.jsonl";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  auto isType = [&](size_t i, const char* type) {
    return lines[i].find(std::string("\"type\":\"") + type + "\"") !=
           std::string::npos;
  };
  size_t commit = lines.size();
  while (commit > 0 && !isType(commit - 1, "commit")) --commit;
  if (commit == 0) return;
  size_t begin = commit - 1;
  while (begin > 0 && !isType(begin, "begin")) --begin;
  std::vector<std::string> kept(lines.begin(), lines.begin() + begin);
  for (size_t i = commit; i < lines.size(); ++i) {
    if (!isType(i, "checkpoint")) kept.push_back(lines[i]);
  }
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : kept) out << line << "\n";
}

}  // namespace perfbench
