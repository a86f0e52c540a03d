// chainbench: one benchmark for packed-corpus sweeps and the chaind
// analysis service.
//
// Usage: chainbench --workload sweep|serve-zipf --seed N
//                   --seconds S --trace 0|1 [--workdir DIR]
//                   [--domains N] [--workers W]
//                   [--cache-capacity N] [--rate R]
//
// Prints one line per metric, then as its last line one JSON object
// with the outputs check ("correct", "attempted", "failed"), every
// metric with its unit, the provenance of the numbers and the first
// failures. --trace 0 measures the end-to-end metrics; --trace 1 runs
// the per-layer probes and counters instead (README.md).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

using namespace chainbench;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "model name" and the flags this benchmark's numbers depend on.
std::string cpu_provenance() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(in, line)) {
    const auto value = [&] {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? std::string{}
                                        : line.substr(colon + 2);
    };
    if (line.rfind("model name", 0) == 0 && model == "unknown") model = value();
    if (line.rfind("flags", 0) == 0 && flags.empty()) {
      flags = " " + value() + " ";
    }
  }
  std::string out = "\"cpu\":" + json_string(model) + ",\"cpu_flags\":{";
  const char* wanted[] = {"sha_ni", "avx2", "adx"};
  for (std::size_t i = 0; i < 3; ++i) {
    const bool has = flags.find(std::string(" ") + wanted[i] + " ") !=
                     std::string::npos;
    out += std::string(i ? "," : "") + "\"" + wanted[i] + "\":" +
           (has ? "true" : "false");
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = v == "1";
      else if (flag == "--workdir") o.workdir = v;
      else if (flag == "--domains") o.domains = std::stoull(v);
      else if (flag == "--workers") o.workers = std::stoul(v);
      else if (flag == "--cache-capacity") o.cache_capacity = std::stoull(v);
      else if (flag == "--rate") o.rate = std::stod(v);
      else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v.c_str());
      return false;
    }
  }
  if (o.workload != "sweep" && o.workload != "serve-zipf") {
    std::fprintf(stderr, "--workload must be sweep or serve-zipf\n");
    return false;
  }
  if (o.seconds <= 0 || o.workers == 0 || o.domains == 0 ||
      o.rate <= 0) {
    std::fprintf(stderr, "sizes, rates and durations must be positive\n");
    return false;
  }
  return true;
}

Outcome measure(const Options& o, Workspace& ws) {
  const bool sweep = o.workload == "sweep";
  if (!o.trace) {
    return sweep ? run_sweep(ws, o.seconds, false)
                 : run_serve(o, ws, o.seconds, false);
  }

  // Traced: the workload's own path untraced and traced (the overhead
  // is the difference), then the other path's layer counters from a
  // shorter companion phase, then the probes.
  Outcome out;
  const std::string prefix =
      sweep ? "sweep.cpu_us_per_record_" : "service.cpu_us_per_request_";
  if (sweep) {
    out.merge(run_sweep(ws, 0.5 * o.seconds, true));
    out.merge(run_serve(o, ws, 0.3 * o.seconds, true));
  } else {
    out.merge(run_serve(o, ws, 0.6 * o.seconds, true));
    out.merge(run_sweep(ws, 0.2 * o.seconds, true));
  }
  const double plain = out.find(prefix + "untraced")->value;
  const double traced = out.find(prefix + "traced")->value;
  out.add("trace.overhead_pct", "%",
          plain > 0 ? 100.0 * (traced - plain) / plain : 0.0);
  out.merge(run_layer_probes(o, ws));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return 2;
  const unsigned nproc = hardware_threads();
  const std::string path = o.workdir + "/chainbench-" +
                           std::to_string(::getpid()) + ".chc";
  try {
    // Fresh set-ups; setup_s is their median, the last one is measured.
    const bool serve = o.workload != "sweep" || o.trace;
    std::vector<double> total, generate, pack;
    std::unique_ptr<Workspace> ws;
    for (unsigned k = 0; k < kSetups; ++k) {
      ws.reset();
      ws = set_up(o, path, serve);
      total.push_back(ws->total_s);
      generate.push_back(ws->generate_s);
      pack.push_back(ws->pack_s);
    }
    std::printf("chainbench %s seed=%llu: %zu records, set-up %.3f s "
                "(median of %u)\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                ws->records, median(total), kSetups);

    Outcome out = measure(o, *ws);
    out.add("setup_s", "s", median(total));
    out.add("dataset.generate_us_per_domain", "us",
            1e6 * median(generate) / static_cast<double>(o.domains));
    out.add("corpusio.pack_us_per_record", "us",
            1e6 * median(pack) / static_cast<double>(ws->records));
    const std::size_t records = ws->records;
    ws.reset();
    std::remove(path.c_str());

    for (const Metric& m : out.metrics) {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& e : out.errors) {
      std::printf("  FAILED: %s\n", e.c_str());
    }

    std::string line = "{\"correct\":";
    line += out.failed == 0 ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(out.attempted);
    line += ",\"failed\":" + std::to_string(out.failed);
    line += ",\"metrics\":{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const Metric& m = out.metrics[i];
      if (i > 0) line += ',';
      line += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
              ",\"unit\":" + json_string(m.unit) + "}";
    }
    line += "},\"provenance\":{" + cpu_provenance();
    line += ",\"nproc\":" + std::to_string(nproc);
    line += ",\"compiler\":" + json_string(CHAINBENCH_COMPILER);
    line += ",\"build_type\":" + json_string(CHAINBENCH_BUILD_TYPE);
    line += ",\"workload\":" + json_string(o.workload);
    line += ",\"seed\":" + std::to_string(o.seed);
    line += ",\"seconds\":" + json_number(o.seconds);
    line += ",\"trace\":" + std::string(o.trace ? "true" : "false");
    line += ",\"domains\":" + std::to_string(o.domains);
    line += ",\"records\":" + std::to_string(records);
    line += ",\"setups\":" + std::to_string(kSetups);
    line += ",\"daemon_workers\":" + std::to_string(o.workers);
    line += ",\"cache_capacity\":" + std::to_string(o.cache_capacity);
    line += ",\"rate\":" + json_number(o.rate);
    line += ",\"probe_records\":" + std::to_string(kProbeRecords);
    line += "},\"errors\":[";
    for (std::size_t i = 0; i < out.errors.size(); ++i) {
      if (i > 0) line += ',';
      line += json_string(out.errors[i]);
    }
    std::printf("%s]}\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::remove(path.c_str());
    std::fprintf(stderr, "chainbench: %s\n", e.what());
    return 1;
  }
}
