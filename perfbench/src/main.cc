// The repository benchmark. One run: one workload, one seed, a fixed
// measuring time. Prints human-readable notes (lines starting with '#'),
// then one line per metric, then the result as one JSON line.
//
//   perfbench --workload lib_adversarial --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same loop
// with spans around every call into a layer and reports the per-layer
// metrics. --describe prints the generated inputs and exits.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/common.h"

namespace {

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload "
               "lib_adversarial|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--describe]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--describe") {
      args.describe = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1) Usage("--seconds must be at least 1");

  perfbench::Result r;
  if (args.workload == "lib_adversarial") {
    r = perfbench::RunLib(args);
  } else if (args.workload == "serve_mixed") {
    r = perfbench::RunServe(args);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.describe) return 0;

  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!ValidName(m.name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", m.name.c_str());
      return 3;
    }
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("# error_rate = %llu failed / %llu attempted\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
