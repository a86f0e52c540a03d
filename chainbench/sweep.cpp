// The sweep workload: a distinct packed corpus streamed through
// engine::run (what `measure_corpus --corpus` does): one pass at 1
// thread, then passes at nproc threads until the budget is spent.
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "chain/analyzer.hpp"
#include "chain/issuance.hpp"
#include "corpusio/source.hpp"
#include "crypto/verifier.hpp"
#include "engine/engine.hpp"
#include "obs/trace.hpp"

namespace chainbench {

namespace {

struct Pass {
  std::size_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  // Layer counters, read right after the pass (every memo and counter
  // was reset right before it).
  crypto::VerifierStats verifier;
  crypto::VerifyMemoStats verify_memo;
  chain::IssuanceCacheStats issuance;
  std::uint64_t aia_attempts = 0;
  std::uint64_t x509_parses = 0;
};

}  // namespace

Outcome run_sweep(Workspace& ws, double budget_s, bool traced) {
  Outcome out;
  const unsigned nproc = hardware_threads();
  net::AiaRepository& aia = ws.packed->aia();
  chain::CompletenessOptions completeness;
  completeness.store = &ws.packed->stores().union_store;
  completeness.aia = &aia;
  const chain::ComplianceAnalyzer analyzer(completeness);

  corpusio::PackedRecordSource packed(&ws.packed->reader());
  std::string reference_summary;
  obs::Tracer& tracer = obs::Tracer::instance();

  auto run_pass = [&](unsigned threads) {
    reset_memos(aia);
    packed.reset_counters();
    const obs::StageStatsSnapshot stages_before = tracer.stage_stats();

    engine::AnalysisRequest request;
    request.source = &packed;
    request.shards.threads = threads;
    request.analyzer = &analyzer;
    Pass pass;
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    const engine::AnalysisResult result = engine::run(request);
    pass.wall_s = wall_s() - t0;
    pass.cpu_s = process_cpu_s() - cpu0;
    pass.records = result.records_processed;
    pass.verifier = crypto::Verifier::computation_stats();
    pass.verify_memo = crypto::process_verify_memo().stats();
    pass.issuance = chain::issuance_cache_stats();
    pass.aia_attempts = aia.stats().attempts;
    const auto parse = static_cast<std::size_t>(obs::Stage::kX509Parse);
    pass.x509_parses =
        tracer.stage_stats()[parse].count - stages_before[parse].count;

    // Output checks: every record decoded, and the summary is the same
    // byte for byte at every thread count (the first pass is 1 thread).
    out.attempted += packed.size();
    if (packed.decode_errors() != 0) {
      out.fail(packed.decode_errors(), "sweep: records failed to decode");
    }
    if (result.records_processed + packed.decode_errors() != packed.size()) {
      out.fail(packed.size() - result.records_processed,
               "sweep: records not processed");
    }
    const std::string summary =
        engine::summary_table(result.tally.compliance).render();
    if (reference_summary.empty()) {
      reference_summary = summary;
    } else if (summary != reference_summary) {
      out.fail(packed.size(), "sweep: summary at " +
                                  std::to_string(threads) +
                                  " threads differs from 1 thread");
    }
    return pass;
  };

  // One 1-thread pass gives the reference summary; the traced run, which
  // needs the 1-thread rate for the scaling efficiency, repeats it.
  // Resident memory grows with every engine::run, so the peak is read
  // after a fixed number of passes: a faster sweep fits more passes in
  // the budget and would otherwise look bigger.
  std::vector<Pass> wide, single;
  const double deadline = wall_s() + budget_s;
  constexpr std::size_t kMaxPasses = 64;
  constexpr std::size_t kRssPasses = 4;
  double rss_mib = 0.0;
  single.push_back(run_pass(1));
  reset_peak_rss();
  do {
    wide.push_back(run_pass(nproc));
    if (wide.size() == kRssPasses) rss_mib = peak_rss_mib();
    if (traced) single.push_back(run_pass(1));
  } while ((wall_s() < deadline || wide.size() < kRssPasses) &&
           wide.size() < kMaxPasses);

  auto over = [](const std::vector<Pass>& passes, auto&& value) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(value(p));
    return median(std::move(v));
  };
  auto per_record = [](const Pass& p, double x) {
    return p.records > 0 ? x / static_cast<double>(p.records) : 0.0;
  };
  auto cpu_us = [&](const Pass& p) { return 1e6 * per_record(p, p.cpu_s); };
  auto rate = [](const Pass& p) { return p.records / p.wall_s; };

  if (!traced) {
    double records = 0.0, seconds = 0.0;
    for (const Pass& p : wide) {
      records += static_cast<double>(p.records);
      seconds += p.wall_s;
    }
    out.add("throughput_per_s", "1/s", records / seconds);
    out.add("cpu_us_per_op", "us", over(wide, cpu_us));
    out.add("peak_rss_mib", "MiB", rss_mib);
    return out;
  }

  // Traced passes at nproc threads only, each on an emptied tracer whose
  // per-thread span buffers hold a whole pass: the stage counts come from
  // completed spans, so a dropped span would be a missed count. A buffer
  // takes its capacity when its thread first traces, and engine::run
  // makes the calling thread a worker, so each pass is started from a
  // new thread.
  std::vector<Pass> traced_passes;
  tracer.set_buffer_capacity(1u << 18);
  for (int i = 0; i < 2; ++i) {
    tracer.reset();
    tracer.set_enabled(true);
    std::thread([&] { traced_passes.push_back(run_pass(nproc)); }).join();
    tracer.set_enabled(false);
    if (tracer.dropped() != 0) {
      out.fail(1, "sweep: the tracer dropped spans; stage counts are short");
    }
  }

  out.add("sweep.cpu_us_per_record_untraced", "us", over(wide, cpu_us));
  out.add("sweep.cpu_us_per_record_traced", "us", over(traced_passes, cpu_us));
  out.add("x509.parses_per_record", "count",
          over(traced_passes, [&](const Pass& p) {
            return per_record(p, static_cast<double>(p.x509_parses));
          }));
  out.add("crypto.verifications_per_record", "count",
          over(wide, [&](const Pass& p) {
            return per_record(p, static_cast<double>(p.verifier.verifications));
          }));
  out.add("crypto.verify_memo_hit_ratio", "ratio",
          over(wide, [](const Pass& p) { return p.verify_memo.hit_ratio(); }));
  out.add("chain.issuance_memo_hit_ratio", "ratio",
          over(wide, [](const Pass& p) {
            return p.issuance.lookups > 0
                       ? static_cast<double>(p.issuance.hits) /
                             static_cast<double>(p.issuance.lookups)
                       : 0.0;
          }));
  // Each memo miss inserts one entry, so the checks made since the reset
  // are the pass's final residency.
  out.add("chain.issuance_memo_entries", "count", over(wide, [](const Pass& p) {
            return static_cast<double>(p.issuance.signature_checks);
          }));
  out.add("net.aia_fetches_per_record", "count", over(wide, [&](const Pass& p) {
            return per_record(p, static_cast<double>(p.aia_attempts));
          }));
  const double rate_single = over(single, rate);
  out.add("engine.records_per_s_1t", "1/s", rate_single);
  out.add("engine.scaling_efficiency", "ratio",
          rate_single > 0 ? over(wide, rate) / (nproc * rate_single) : 0.0);
  return out;
}

}  // namespace chainbench
