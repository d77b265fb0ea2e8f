// perfbench: the repository's end-to-end benchmark. One process, one
// driving thread in a closed loop, one workload per run:
//
//   perfbench --workload <acl_churn|fuzz_mix|bulk_load|forward> --seed <n>
//             --seconds <s> --trace <0|1> [--state-dir <dir>]
//             [--trace-out <file>] [--sabotage <check>]
//
// The last line of standard output is the result object; everything else
// goes to standard error. Exit status 0 only when every correctness check
// held. perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "tracer.h"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--state-dir <dir>] "
               "[--trace-out <file>] [--sabotage <check>]\n",
               why.c_str());
  std::exit(2);
}

double number(const std::string& flag, const char* text) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0)) {
    usage(flag + " needs a non-negative number, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = static_cast<uint64_t>(number(flag, value));
    } else if (flag == "--seconds") {
      opts.seconds = number(flag, value);
    } else if (flag == "--trace") {
      std::string v = value;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (flag == "--state-dir") {
      opts.stateDir = value;
    } else if (flag == "--trace-out") {
      opts.traceOut = value;
    } else if (flag == "--sabotage") {
      opts.sabotage = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = parse(argc, argv);
  perfbench::Tracer tracer(opts.trace);
  perfbench::Result result(opts.trace);
  int rc = 0;
  try {
    if (opts.workload == "acl_churn") {
      rc = perfbench::runAclChurn(opts, result, tracer);
    } else if (opts.workload == "fuzz_mix") {
      rc = perfbench::runFuzzMix(opts, result, tracer);
    } else if (opts.workload == "bulk_load") {
      rc = perfbench::runBulkLoad(opts, result, tracer);
    } else if (opts.workload == "forward") {
      rc = perfbench::runForward(opts, result, tracer);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opts.trace && !opts.traceOut.empty() &&
      !tracer.writeChromeTrace(opts.traceOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opts.traceOut.c_str());
    rc = 1;
  }
  std::fprintf(stderr, "%s: %llu attempted, %llu failed, %s\n%s",
               opts.workload.c_str(),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed),
               result.correct() ? "outputs correct" : "OUTPUTS INCORRECT",
               result.table().c_str());
  if (opts.trace) {
    // The traced run's own end-to-end figures, for the tracing overhead.
    std::fprintf(stderr, "perfbench-traced-e2e %s\n",
                 result.metricsJson(false).c_str());
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return rc == 0 && result.correct() ? 0 : 1;
}
