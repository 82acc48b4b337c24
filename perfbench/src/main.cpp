// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints a human-readable report (host stamp, every metric with its unit and
// sample count) and, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (untraced); --trace 1 reports the per-layer metrics and
// writes the recorded spans to --trace-out. Each workload repeats a request
// it has already served and compares the deterministic counts; a mismatch
// marks the run incorrect.
#include <cassert>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/simd_dispatch.h"
#include "noise/audit.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads: mul8cmp_single_m2 addcmp_batch16_m3 "
               "sim_mul8cmp_4chip\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
      have_trace = std::string(v) == "0" || opt.trace;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_trace || !(opt.seconds > 0)) {
    return usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }

  // These runs would measure a different program.
  if (matcha::fault::Registry::instance().active()) {
    std::fprintf(stderr, "perfbench: refusing to run with fault injection "
                         "active (MATCHA_FAULTS)\n");
    return 3;
  }
  if (matcha::noise::MarginAudit::instance().enabled()) {
    std::fprintf(stderr, "perfbench: refusing to run with the noise-margin "
                         "audit on (MATCHA_NOISE_AUDIT or a debug build)\n");
    return 3;
  }

  const char* simd_env = std::getenv("MATCHA_SIMD");
  const std::map<std::string, std::string> host = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"simd", matcha::simd_level_name(matcha::active_simd_level())},
      {"matcha_simd_env", simd_env != nullptr ? simd_env : "<unset>"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"faults_compiled_in", matcha::fault::compiled_in() ? "1" : "0"},
  };
  std::printf("host:");
  for (const auto& [k, v] : host) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");

  Tracer tracer;
  Report rep;
  try {
    if (opt.workload == "mul8cmp_single_m2") {
      rep = run_software({CircuitKind::kMul8Cmp, /*unroll_m=*/2, /*batch=*/1,
                          /*threads=*/4},
                         opt, tracer);
    } else if (opt.workload == "addcmp_batch16_m3") {
      rep = run_software({CircuitKind::kAddCmp, /*unroll_m=*/3, /*batch=*/16,
                          /*threads=*/4},
                         opt, tracer);
    } else if (opt.workload == "sim_mul8cmp_4chip") {
      rep = run_simulator(opt, tracer);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& k : rep.mismatches) {
    std::printf("determinism: MISMATCH in %s on a repeated request\n", k.c_str());
  }
  const bool correct = rep.failed == 0 && rep.mismatches.empty();
  if (opt.trace && !trace_out.empty() &&
      !tracer.write_chrome_json(trace_out, host)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }

  // Human-readable report: every metric this mode reports, with its sample
  // count; a layer the workload does not call reads 0.
  std::printf("requests=%lld items_attempted=%lld failed=%lld error_rate=%.6g\n",
              static_cast<long long>(rep.requests),
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed),
              static_cast<double>(rep.failed) /
                  static_cast<double>(rep.attempted > 0 ? rep.attempted : 1));
  if (!opt.trace) {
    if (rep.latency_p90_ms >= 0) {
      std::printf("%-30s %14.6g %-6s (n=%lld)\n", "latency_p90_ms",
                  rep.latency_p90_ms, "ms", static_cast<long long>(rep.requests));
    } else {
      std::printf("%-30s %14s %-6s (n=%lld < 100 requests)\n", "latency_p90_ms",
                  "n/a", "ms", static_cast<long long>(rep.requests));
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  const auto emit = [&](const MetricSpec& m) {
    const auto it = rep.metrics.find(m.name);
    const Value v = it == rep.metrics.end() ? Value{0, 0} : it->second;
    std::printf("%-30s %14.6g %-6s (n=%lld)\n", m.name, v.value, m.unit,
                static_cast<long long>(v.samples));
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", v.value);
    json += std::string(sep) + "\"" + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
    sep = ", ";
  };
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      if (rep.metrics.count(m.name) == 0) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n", m.name);
        return 1;
      }
      emit(m);
    }
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}
