// perfbench_loadgen: the load generator of the repository benchmark.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --daemon PATH [--out-dir DIR] [--commit SHA]
//
// Runs one workload against a davinci_serverd child process, checks the
// answers, and prints one metric per line followed by one JSON object with
// every metric, the run record and the success tallies (perfbench/run.py
// turns that into the benchmark's result line). See README.md here.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/stats.h"

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH [--out-dir DIR] [--commit SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--daemon") {
      options.daemon = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.daemon.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench_loadgen: refusing to time a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::RunResult result = perfbench::RunWorkload(options);
  if (options.trace && result.correct) perfbench::RunLadder(options, result);

  auto& params = result.params;
  params["workload"] = options.workload;
  params["seed"] = std::to_string(options.seed);
  params["seconds"] = Number(options.seconds);
  params["trace"] = options.trace ? "1" : "0";
  params["hardware_threads"] =
      std::to_string(std::thread::hardware_concurrency());
  params["build_type"] = PERFBENCH_BUILD_TYPE;
  params["davinci_stats"] = davinci::obs::kStatsEnabled ? "on" : "off";
  params["simd_backend"] = PERFBENCH_SIMD;
  params["git_commit"] = commit;
  params["daemon_workers"] = "3";

  double ops = static_cast<double>(result.attempted);
  result.metrics.Set("ops_failed_frac",
                     ops > 0 ? static_cast<double>(result.failed) / ops : 1.0,
                     "ratio", result.attempted);

  for (const auto& [name, metric] : result.metrics.metrics()) {
    std::printf("metric %-40s %16.6f %-8s n=%zu %s\n", name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples,
                metric.detail.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("error %s\n", error.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics.metrics()) {
    json << (first ? "" : ", ") << '"' << Escape(name) << "\": {\"value\": "
         << Number(metric.value) << ", \"unit\": \"" << Escape(metric.unit)
         << "\", \"samples\": " << metric.samples << ", \"detail\": \""
         << Escape(metric.detail) << "\"}";
    first = false;
  }
  json << "}, \"params\": {";
  first = true;
  for (const auto& [key, value] : params) {
    json << (first ? "" : ", ") << '"' << Escape(key) << "\": \""
         << Escape(value) << '"';
    first = false;
  }
  json << "}, \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    json << (i ? ", " : "") << '"' << Escape(result.errors[i]) << '"';
  }
  json << "]}";

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  std::ofstream record(options.out_dir + "/run_" + options.workload + "_seed" +
                       std::to_string(options.seed) + "_trace" +
                       (options.trace ? "1" : "0") + ".json");
  record << json.str() << '\n';
  std::printf("%s\n", json.str().c_str());
  return result.correct ? 0 : 1;
}
