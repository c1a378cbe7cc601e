// End-to-end benchmark driver of the shg library.
//
//   shg_perfbench --workload dse|campaign|serve --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// A timed run (--trace 0) prints the workload's end-to-end metrics; a
// traced run (--trace 1) records spans around the calls into each layer
// and prints the per-layer metrics derived from them, plus the named
// workload's end-to-end numbers under "traced." so the tracing overhead
// shows. Every traced run prints the per-layer metrics of every workload:
// after the named workload it traces each other one on a quarter of the
// budget. The last stdout line is one JSON object: correct, attempted,
// failed, metrics. See BENCHMARK.md in this directory for every workload
// and metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

using Workload = Report (*)(const Options&, Tracer&);

const std::vector<std::pair<std::string, Workload>> kWorkloads = {
    {"dse", run_dse}, {"campaign", run_campaign}, {"serve", run_serve}};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: shg_perfbench --workload "
               "dse|campaign|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  Workload run = nullptr;
  for (const auto& [name, workload] : kWorkloads) {
    if (options.workload == name) run = workload;
  }
  if (run == nullptr) return usage("unknown or missing --workload");

  std::printf("machine: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              SHG_BENCH_COMPILER, SHG_BENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu (default %llu, held-out %llu) "
              "seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Tracer tracer(options.trace);
  Report report;
  try {
    report = run(options, tracer);
    for (const auto& [name, workload] : kWorkloads) {
      if (!options.trace || name == options.workload) continue;
      Options other = options;
      other.workload = name;
      other.seconds = options.seconds / 4.0;
      const Report layers = workload(other, tracer);
      for (const Metric& m : layers.metrics) {
        if (m.name.rfind("traced.", 0) != 0) report.metrics.push_back(m);
      }
      report.notes.push_back("threads (" + name + "): library=" +
                             std::to_string(layers.threads) +
                             " server_workers=" +
                             std::to_string(layers.server_workers));
      report.attempted += layers.attempted;
      report.failed += layers.failed;
      report.notes.insert(report.notes.end(), layers.notes.begin(),
                          layers.notes.end());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s threw: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("threads: library=%d server_workers=%d\n", report.threads,
              report.server_workers);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("output digest: %s\n", report.digest.c_str());
  std::printf("accuracy: the model is unvalidated (the repository holds no "
              "measured hardware reference), so no error figure is given\n");
  std::printf("fail_frac: %.6g (%llu failed of %llu attempted)\n",
              report.attempted == 0
                  ? 1.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const Metric& m : report.metrics) {
    std::printf("metric %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [layer, self_s] : tracer.self_by_layer()) {
    std::printf("layer self time %-12s %12.6f s\n", layer.c_str(), self_s);
  }
  if (options.trace && !options.trace_out.empty()) {
    if (!tracer.write_json(options.trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", options.trace_out.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
