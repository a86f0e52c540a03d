// The serve-zipf workload: an in-process chaind (service::Server)
// answering POST /v1/analyze for corpus chains sent by a load generator
// in the same process over real loopback keep-alive connections. Chains
// are drawn with Zipf(s=1) popularity over every corpus record, far more
// records than the result cache holds, so the LRU both hits and evicts.
//
// A run is: an untimed warm-up, a closed loop on nproc connections
// (capacity, daemon CPU per request), and an open loop at a fixed offered
// rate whose latencies are timed from each request's due time.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"

namespace chainbench {

namespace {

/// The order in which corpus records are requested: Zipf(s=1) over
/// popularity ranks, rank r being record permutation[r-1] of a seeded
/// shuffle, so popularity is independent of corpus order. The sequence
/// wraps around after kLength requests.
class ZipfPlan {
 public:
  ZipfPlan(std::size_t records, std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x5a1ff00dULL);
    std::vector<std::uint32_t> permutation(records);
    for (std::size_t i = 0; i < records; ++i) {
      permutation[i] = static_cast<std::uint32_t>(i);
    }
    std::shuffle(permutation.begin(), permutation.end(), rng);
    std::vector<double> cdf(records);
    double total = 0.0;
    for (std::size_t r = 0; r < records; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf[r] = total;
    }
    std::uniform_real_distribution<double> uniform(0.0, total);
    order_.resize(kLength);
    for (std::uint32_t& slot : order_) {
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), uniform(rng));
      const auto rank = static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(it - cdf.begin(),
                                   static_cast<std::ptrdiff_t>(records - 1)));
      slot = permutation[rank];
    }
  }

  /// Record index of the k-th request.
  std::size_t at(std::size_t k) const { return order_[k % order_.size()]; }

 private:
  static constexpr std::size_t kLength = 1u << 20;
  std::vector<std::uint32_t> order_;
};

/// One answered request: when it was sent (in the open loop: when it
/// was due) and when its answer arrived.
struct Sample {
  double start = 0.0;
  double sent = 0.0;  ///< when the request left (equals start when closed)
  double done = 0.0;
};

/// What one load phase measured.
struct Phase {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::vector<Sample> samples;   ///< ok responses only
  std::vector<double> late_ms;   ///< open loop: send time minus due time
  double wall_s = 0.0;
  double cpu_s = 0.0;            ///< whole process
  double generator_cpu_s = 0.0;  ///< generator threads only

  double daemon_cpu_us_per_request() const {
    return ok > 0 ? 1e6 * (cpu_s - generator_cpu_s) / static_cast<double>(ok)
                  : 0.0;
  }
  /// Mean send-to-answer time (the generator's lateness excluded).
  double mean_round_trip_ms() const {
    double sum = 0.0;
    for (const Sample& s : samples) sum += s.done - s.sent;
    return samples.empty()
               ? 0.0
               : 1e3 * sum / static_cast<double>(samples.size());
  }

  /// Answered requests per second over the whole phase.
  double rps() const {
    return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
  }

  /// Latency quantile q over every answered request of the phase, from
  /// its start (in the open loop: its due time) to its answer.
  double latency_ms(double q) const {
    std::vector<double> ms;
    ms.reserve(samples.size());
    for (const Sample& s : samples) ms.push_back(1e3 * (s.done - s.start));
    return quantile(std::move(ms), q);
  }
};

/// Histogram sums and counts the daemon exports on /v1/metrics.
struct DaemonCounters {
  double request_sum = 0, request_count = 0;
  double queue_sum = 0, queue_count = 0;
  double tick_sum = 0, tick_count = 0;
  double batch_sum = 0, batch_count = 0;

  static double mean(double sum1, double sum0, double n1, double n0) {
    return n1 > n0 ? (sum1 - sum0) / (n1 - n0) : 0.0;
  }
};

double prom_value(const std::string& text, const std::string& name) {
  const std::string prefix = "\n" + name + " ";
  const std::size_t at = text.find(prefix);
  if (at == std::string::npos) {
    throw std::runtime_error("/v1/metrics lacks " + name);
  }
  return std::stod(text.substr(at + prefix.size(), 32));
}

DaemonCounters read_daemon_counters(service::Client& client) {
  const Result<net::HttpResponse> resp = client.metrics();
  if (!resp.ok() || resp.value().status != 200) {
    throw std::runtime_error("GET /v1/metrics failed");
  }
  std::string text = "\n";  // every sample then starts after a newline
  text += to_string(resp.value().body);
  DaemonCounters c;
  const auto read = [&](const char* histogram, double* sum, double* count) {
    *sum = prom_value(text, std::string(histogram) + "_sum");
    *count = prom_value(text, std::string(histogram) + "_count");
  };
  read("chainchaos_request_duration_seconds", &c.request_sum,
       &c.request_count);
  read("chainchaos_queue_wait_seconds", &c.queue_sum, &c.queue_count);
  read("chainchaos_loop_tick_duration_seconds", &c.tick_sum, &c.tick_count);
  read("chainchaos_poll_batch_size", &c.batch_sum, &c.batch_count);
  return c;
}

std::chrono::steady_clock::time_point to_time_point(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

/// Reference bodies: what the library's own RequestHandler answers for
/// each record, computed in-process with the result cache off.
std::vector<std::string> compute_oracle(Workspace& ws, Outcome& out) {
  service::HandlerOptions options;
  options.roots = &ws.packed->stores().union_store;
  options.aia = &ws.packed->aia();
  service::ResultCache no_cache(0);
  service::Metrics metrics;
  service::RequestHandler handler(options, &no_cache, &metrics);

  std::vector<std::string> bodies(ws.inputs.size());
  std::vector<int> status(ws.inputs.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < hardware_threads(); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < ws.inputs.size(); i = next++) {
        const net::HttpResponse resp =
            handler.handle(analyze_request(ws.inputs[i]));
        status[i] = resp.status;
        bodies[i] = to_string(resp.body);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < status.size(); ++i) {
    if (status[i] != 200) {
      out.fail(1, "oracle: record " + std::to_string(i) + " answered " +
                      std::to_string(status[i]));
    }
  }
  return bodies;
}

/// The load generator: nproc keep-alive connections, one thread and one
/// request in flight each.
class LoadGen {
 public:
  LoadGen(Workspace& ws, const ZipfPlan& plan,
          const std::vector<std::string>& oracle, Outcome& out)
      : ws_(ws), plan_(plan), oracle_(oracle), out_(out) {
    for (unsigned c = 0; c < hardware_threads(); ++c) {
      clients_.push_back(
          std::make_unique<service::Client>(ws.server->port(), 30000));
    }
  }

  service::Client& control() { return *clients_[0]; }

  /// Each client sends its next request as soon as the previous answer
  /// arrived, until `seconds` have passed.
  Phase closed(double seconds) {
    return run([&](Phase& local, unsigned c, double t0) {
      std::this_thread::sleep_until(to_time_point(t0));
      const double deadline = t0 + seconds;
      while (wall_s() < deadline) {
        const double sent = wall_s();
        issue(local, c, sent, sent);
      }
    });
  }

  /// Requests are due at a fixed `rate` for `seconds`; any idle
  /// connection takes the next due request. Latency counts from the due
  /// time.
  Phase open(double rate, double seconds) {
    const auto total = static_cast<std::size_t>(rate * seconds);
    std::atomic<std::size_t> ticket{0};
    return run([&](Phase& local, unsigned c, double t0) {
      // The default 50 us timer slack would make every wake-up late by
      // about that much, which the due-time latency would then include.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t j = ticket++; j < total; j = ticket++) {
        const double due = t0 + static_cast<double>(j) / rate;
        std::this_thread::sleep_until(to_time_point(due));
        const double sent = wall_s();
        local.late_ms.push_back(1e3 * (sent - due));
        issue(local, c, due, sent);
      }
    });
  }

 private:
  template <typename Body>
  Phase run(Body body) {
    Phase phase;
    std::mutex mutex;
    std::vector<std::thread> threads;
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s() + 0.002;  // let every thread start first
    for (unsigned c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        Phase local;
        const double thread_cpu0 = thread_cpu_s();
        body(local, c, t0);
        const double used = thread_cpu_s() - thread_cpu0;
        const std::lock_guard<std::mutex> lock(mutex);
        phase.sent += local.sent;
        phase.ok += local.ok;
        phase.generator_cpu_s += used;
        phase.samples.insert(phase.samples.end(), local.samples.begin(),
                             local.samples.end());
        phase.late_ms.insert(phase.late_ms.end(), local.late_ms.begin(),
                             local.late_ms.end());
      });
    }
    for (std::thread& t : threads) t.join();
    phase.wall_s = wall_s() - t0;
    phase.cpu_s = process_cpu_s() - cpu0;
    return phase;
  }

  /// Sends the next planned request on connection `c` and checks the
  /// answer: a 200 whose body equals the oracle's counts as ok.
  void issue(Phase& local, unsigned c, double start, double sent) {
    const std::size_t index = plan_.at(cursor_++);
    const Result<net::HttpResponse> resp =
        clients_[c]->request(analyze_request(ws_.inputs[index]));
    const double done = wall_s();
    ++local.sent;
    std::string failure;
    if (!resp.ok()) {
      failure = "transport: " + resp.error().to_string();
    } else if (resp.value().status != 200) {
      failure = "status " + std::to_string(resp.value().status);
    } else {
      const Bytes& body = resp.value().body;
      const std::string& expected = oracle_[index];
      if (body.size() != expected.size() ||
          std::memcmp(body.data(), expected.data(), body.size()) != 0) {
        failure = "body differs from RequestHandler::handle";
      }
    }
    if (failure.empty()) {
      ++local.ok;
      local.samples.push_back(Sample{start, sent, done});
    } else {
      const std::lock_guard<std::mutex> lock(fail_mutex_);
      out_.fail(1, "serve: record " + std::to_string(index) + ": " + failure);
    }
  }

  Workspace& ws_;
  const ZipfPlan& plan_;
  const std::vector<std::string>& oracle_;
  Outcome& out_;
  std::mutex fail_mutex_;
  std::vector<std::unique_ptr<service::Client>> clients_;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace

Outcome run_serve(const Options& options, Workspace& ws, double budget_s,
                  bool traced) {
  Outcome out;
  net::AiaRepository& aia = ws.packed->aia();
  const std::vector<std::string> oracle = compute_oracle(ws, out);
  const ZipfPlan plan(ws.inputs.size(), options.seed);
  LoadGen load(ws, plan, oracle, out);
  obs::Tracer& tracer = obs::Tracer::instance();

  auto account = [&](const Phase& phase, const char* name) {
    out.attempted += phase.sent;
    std::printf("  %-12s %7llu ok  %9.1f req/s  %8.1f us daemon-cpu/req\n",
                name, static_cast<unsigned long long>(phase.ok), phase.rps(),
                phase.daemon_cpu_us_per_request());
  };

  reset_peak_rss();
  account(load.closed(0.1 * budget_s), "warm-up");

  if (!traced) {
    reset_memos(aia);
    const Phase wide = load.closed(0.45 * budget_s);
    account(wide, "closed");
    reset_memos(aia);
    const Phase open = load.open(options.rate, 0.45 * budget_s);
    account(open, "open");
    out.add("throughput_per_s", "1/s", wide.rps());
    out.add("cpu_us_per_op", "us", wide.daemon_cpu_us_per_request());
    out.add("p50_ms", "ms", open.latency_ms(0.50));
    out.add("p90_ms", "ms", open.latency_ms(0.90));
    out.add("p99_ms", "ms", open.latency_ms(0.99));
    out.add("peak_rss_mib", "MiB", peak_rss_mib());
    out.add("loadgen.requests", "count",
            static_cast<double>(open.samples.size()));
    out.add("loadgen.late_p99_ms", "ms", quantile(open.late_ms, 0.99));
    return out;
  }

  // Traced: the same closed loop untraced and then traced (the overhead
  // is their difference), then a traced open loop; daemon counters are
  // read from /v1/metrics around each traced phase.
  reset_memos(aia);
  const Phase plain = load.closed(0.3 * budget_s);
  account(plain, "closed");
  reset_memos(aia);
  // Spans are only kept for the tracing cost here (the daemon counters
  // come from /v1/metrics), so the buffers stay small and may fill.
  tracer.set_buffer_capacity(1u << 15);
  tracer.set_enabled(true);
  const service::CacheStats cache0 = ws.server->cache_stats();
  const DaemonCounters d0 = read_daemon_counters(load.control());
  const Phase traced_closed = load.closed(0.3 * budget_s);
  account(traced_closed, "closed+tr");
  const DaemonCounters d1 = read_daemon_counters(load.control());
  const Phase open = load.open(options.rate, 0.3 * budget_s);
  account(open, "open+tr");
  const DaemonCounters d2 = read_daemon_counters(load.control());
  const service::CacheStats cache1 = ws.server->cache_stats();
  tracer.set_enabled(false);

  const double requests =
      static_cast<double>(traced_closed.sent + open.sent);
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups =
      hits + static_cast<double>(cache1.misses - cache0.misses);
  const double plain_cpu = plain.daemon_cpu_us_per_request();
  out.add("service.cpu_us_per_request_untraced", "us", plain_cpu);
  out.add("service.cpu_us_per_request_traced", "us",
          traced_closed.daemon_cpu_us_per_request());
  out.add("service.cache_hit_ratio", "ratio",
          lookups > 0 ? hits / lookups : 0.0);
  out.add("service.cache_evictions_per_request", "count",
          requests > 0 ? static_cast<double>(cache1.evictions -
                                             cache0.evictions) /
                             requests
                       : 0.0);
  out.add("service.queue_wait_us", "us",
          1e6 * DaemonCounters::mean(d2.queue_sum, d0.queue_sum,
                                     d2.queue_count, d0.queue_count));
  out.add("service.request_us", "us",
          1e6 * DaemonCounters::mean(d2.request_sum, d0.request_sum,
                                     d2.request_count, d0.request_count));
  out.add("service.loop_tick_us", "us",
          1e6 * DaemonCounters::mean(d2.tick_sum, d0.tick_sum, d2.tick_count,
                                     d0.tick_count));
  out.add("service.poll_batch_mean", "count",
          DaemonCounters::mean(d2.batch_sum, d0.batch_sum, d2.batch_count,
                               d0.batch_count));
  // Client round trip minus the daemon's parse-to-send time, over the
  // traced open loop (one request in flight per connection): framing,
  // loopback TCP and the event loop.
  out.add("net.transport_us", "us",
          1e3 * open.mean_round_trip_ms() -
              1e6 * DaemonCounters::mean(d2.request_sum, d1.request_sum,
                                         d2.request_count, d1.request_count));
  out.add("loadgen.requests", "count",
          static_cast<double>(open.samples.size()));
  out.add("loadgen.late_p99_ms", "ms", quantile(open.late_ms, 0.99));
  return out;
}

}  // namespace chainbench
