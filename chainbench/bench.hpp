// chainbench: shared declarations of the benchmark binary.
//
// The benchmark measures the library from outside: it generates every
// input from the seed, calls only public functions, times those calls
// with steady_clock, and reads the counters the library already
// exports. See README.md for the workloads, the metrics and which
// end-to-end number each layer metric is expected to move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/analyzer.hpp"
#include "corpusio/reader.hpp"
#include "net/http.hpp"
#include "service/server.hpp"

namespace chainbench {

using namespace chainchaos;

// ---- command line ---------------------------------------------------------

struct Options {
  std::string workload;        ///< sweep | serve-zipf
  std::uint64_t seed = 1;
  double seconds = 10.0;       ///< timed budget of one run
  bool trace = false;          ///< per-layer run instead of end-to-end
  std::string workdir = ".";   ///< scratch files (the packed corpus) go here
  std::size_t domains = 20000; ///< generated corpus size
  unsigned workers = 2;        ///< daemon worker threads
  std::size_t cache_capacity = service::ServerConfig{}.cache_capacity;
  double rate = 4500.0;        ///< open-loop offered rate, serve-zipf (1/s)
};

/// Fresh set-ups per run; setup_s is their median.
constexpr unsigned kSetups = 3;
/// Records behind each layer probe of the traced run.
constexpr std::size_t kProbeRecords = 400;

// ---- measurement helpers --------------------------------------------------

double wall_s();         ///< steady_clock seconds
double process_cpu_s();  ///< CPU time of every thread of the process
double thread_cpu_s();   ///< CPU time of the calling thread

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Resets the kernel's peak-RSS mark so peak_rss_mib() covers only what
/// follows (on kernels without that reset it covers the whole process).
void reset_peak_rss();
double peak_rss_mib();

/// Hardware threads available to this process.
unsigned hardware_threads();

// ---- memo hygiene ---------------------------------------------------------

/// Drops every process-wide memo and zeroes every process-wide counter
/// through the library's public reset functions, then checks that each
/// reports zero residency. Throws std::runtime_error if one does not:
/// a phase that starts warm would measure memo hits, not work.
void reset_memos(net::AiaRepository& aia);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> metrics;

  void fail(std::uint64_t count, const std::string& why);
  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
  /// Adds `other`'s operations and failures, and those of its metrics
  /// whose names this outcome does not have yet.
  void merge(const Outcome& other);
  const Metric* find(const std::string& name) const;
};

// ---- set-up ---------------------------------------------------------------

/// One request of the serve workloads: a corpus record as a client would
/// post it.
struct ServeInput {
  std::string domain;
  std::string pem;  ///< request body
};

/// The request body a client posts for a corpus record's chain.
ServeInput serve_input(const chain::ChainObservation& observation);

/// POST /v1/analyze?domain=... with the PEM body, as service::Client
/// sends it.
net::HttpRequest analyze_request(const ServeInput& input);

/// Everything one fresh set-up builds. Member order matters: the daemon
/// points into the packed corpus's stores and AIA repository, so it is
/// declared (and therefore destroyed) after them.
struct Workspace {
  std::unique_ptr<corpusio::PackedCorpus> packed;
  std::vector<ServeInput> inputs;          ///< serve set-ups only
  std::unique_ptr<service::Server> server;  ///< serve set-ups only

  double generate_s = 0.0;
  double pack_s = 0.0;
  double total_s = 0.0;
  std::size_t records = 0;
};

/// Generates the seed's corpus, packs it to `path`, opens it, and (when
/// `serve`) decodes every record into a request body and starts the
/// daemon; finally resets every memo. The returned timings cover exactly
/// that work.
std::unique_ptr<Workspace> set_up(const Options& options,
                                  const std::string& path, bool serve);

// ---- phases ---------------------------------------------------------------

/// sweep: packed corpus -> engine::run at nproc and at 1 thread.
/// `traced` switches the library's span instrumentation on for the
/// timed passes and adds the sweep-side layer counters.
Outcome run_sweep(Workspace& ws, double budget_s,
                  bool traced);

/// serve-zipf against the workspace's daemon. `traced` as for
/// run_sweep, adding the daemon-side layer counters.
Outcome run_serve(const Options& options, Workspace& ws, double budget_s,
                  bool traced);

/// The per-layer probes: each layer's public entry point called on the
/// corpus records one call at a time.
Outcome run_layer_probes(const Options& options, Workspace& ws);

}  // namespace chainbench
