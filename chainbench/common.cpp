#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "chain/issuance.hpp"
#include "corpusio/writer.hpp"
#include "crypto/verifier.hpp"
#include "dataset/corpus.hpp"

namespace chainbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void reset_peak_rss() {
  // Returning freed set-up memory first keeps the mark from starting at
  // set-up's high-water level; "5" resets VmHWM to the current RSS.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void reset_memos(net::AiaRepository& aia) {
  chain::reset_issuance_cache();
  crypto::process_verify_memo().reset();
  crypto::Verifier::reset_computation_stats();
  aia.reset_stats();

  // The issuance memo exports no residency gauge; with its lookup and
  // check counters at zero after the reset, nothing was cached since.
  const chain::IssuanceCacheStats issuance = chain::issuance_cache_stats();
  const crypto::VerifyMemoStats memo = crypto::process_verify_memo().stats();
  if (issuance.lookups != 0 || issuance.hits != 0 ||
      issuance.signature_checks != 0 || memo.entries != 0 ||
      memo.lookups != 0 ||
      crypto::Verifier::computation_stats().verifications != 0 ||
      aia.stats().attempts != 0) {
    throw std::runtime_error("a process-wide memo is still warm after reset");
  }
}

void Outcome::fail(std::uint64_t count, const std::string& why) {
  failed += count;
  if (errors.size() < 8) errors.push_back(why);
}

void Outcome::merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
  for (const Metric& m : other.metrics) {
    if (find(m.name) == nullptr) metrics.push_back(m);
  }
}

const Metric* Outcome::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

ServeInput serve_input(const chain::ChainObservation& observation) {
  ServeInput input;
  input.domain = observation.domain;
  for (const x509::CertPtr& cert : observation.certificates) {
    input.pem += x509::to_pem(*cert);
  }
  return input;
}

net::HttpRequest analyze_request(const ServeInput& input) {
  net::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/analyze?domain=" + input.domain;
  request.headers["content-type"] = "application/x-pem-file";
  request.body = to_bytes(input.pem);
  return request;
}

std::unique_ptr<Workspace> set_up(const Options& options,
                                  const std::string& path, bool serve) {
  auto ws = std::make_unique<Workspace>();
  const double t0 = wall_s();
  {
    dataset::CorpusConfig config;
    config.domain_count = options.domains;
    config.seed = options.seed;
    const dataset::Corpus corpus(std::move(config));
    const double t1 = wall_s();
    ws->generate_s = t1 - t0;
    const Result<bool> packed = corpusio::pack_corpus(corpus, path);
    if (!packed.ok()) {
      throw std::runtime_error("pack_corpus: " + packed.error().to_string());
    }
    ws->pack_s = wall_s() - t1;
  }
  auto opened = corpusio::PackedCorpus::open(path);
  if (!opened.ok()) {
    throw std::runtime_error("PackedCorpus::open: " +
                             opened.error().to_string());
  }
  ws->packed = std::move(opened).value();
  const corpusio::CorpusReader& reader = ws->packed->reader();
  ws->records = reader.size();

  if (serve) {
    ws->inputs.reserve(reader.size());
    for (std::size_t i = 0; i < reader.size(); ++i) {
      auto record = reader.decode_record(i);
      if (!record.ok()) {
        throw std::runtime_error("decode_record: " +
                                 record.error().to_string());
      }
      ws->inputs.push_back(serve_input(record.value().observation));
    }
    service::ServerConfig config;
    config.workers = options.workers;
    config.cache_capacity = options.cache_capacity;
    config.idle_timeout_ms = 60000;  // connections idle between phases
    config.handler.roots = &ws->packed->stores().union_store;
    config.handler.aia = &ws->packed->aia();
    ws->server = std::make_unique<service::Server>(config);
    const Result<std::uint16_t> port = ws->server->start();
    if (!port.ok()) {
      throw std::runtime_error("Server::start: " + port.error().to_string());
    }
  }
  reset_memos(ws->packed->aia());
  ws->total_s = wall_s() - t0;
  return ws;
}

}  // namespace chainbench
