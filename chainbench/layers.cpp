// The per-layer probes: each layer's public entry point, called on a
// seeded sample of corpus records one call at a time, timed with
// steady_clock around the call. The memos are reset before each layer's
// loop, so every layer starts as cold as a fresh sweep or daemon does.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chain/analyzer.hpp"
#include "chain/issuance.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verifier.hpp"
#include "lint/lint.hpp"
#include "pathbuild/path_builder.hpp"
#include "service/handlers.hpp"

namespace chainbench {

namespace {

/// Accumulates the time of individually timed calls.
struct Timer {
  double seconds = 0.0;
  std::size_t calls = 0;

  template <typename Fn>
  auto time(Fn&& fn) {
    const double t0 = wall_s();
    auto result = fn();
    seconds += wall_s() - t0;
    ++calls;
    return result;
  }
  double mean_us() const {
    return calls > 0 ? 1e6 * seconds / static_cast<double>(calls) : 0.0;
  }
};

}  // namespace

Outcome run_layer_probes(const Options& options, Workspace& ws) {
  Outcome out;
  const corpusio::CorpusReader& reader = ws.packed->reader();
  net::AiaRepository& aia = ws.packed->aia();
  const truststore::RootStore* store = &ws.packed->stores().union_store;

  std::vector<std::size_t> sample(reader.size());
  for (std::size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  std::mt19937_64 rng(options.seed ^ 0x1a7e5ULL);
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min(sample.size(), kProbeRecords));

  // corpusio: decode_record (which parses every certificate DER).
  reset_memos(aia);
  Timer decode;
  std::vector<dataset::DomainRecord> records;
  for (const std::size_t i : sample) {
    auto record = decode.time([&] { return reader.decode_record(i); });
    ++out.attempted;
    if (!record.ok()) {
      out.fail(1, "decode_record: " + record.error().to_string());
      continue;
    }
    records.push_back(std::move(record).value());
  }

  // x509 and crypto over every certificate of the sample.
  Timer parse, verify;
  double sha_s = 0.0;
  std::size_t sha_bytes = 0;
  for (const dataset::DomainRecord& record : records) {
    const std::vector<x509::CertPtr>& certs = record.observation.certificates;
    for (const x509::CertPtr& cert : certs) {
      const auto parsed =
          parse.time([&] { return x509::parse_certificate(cert->der); });
      if (!parsed.ok()) out.fail(1, "parse_certificate rejected corpus DER");
      const double t0 = wall_s();
      const Bytes digest = crypto::Sha256::digest(cert->tbs_der);
      sha_s += wall_s() - t0;
      sha_bytes += cert->tbs_der.size();
      if (digest.size() != 32) out.fail(1, "sha256 digest size");
    }
    // Real issuer pairs: adjacent certificates whose names or key ids
    // link, verified with no memo so every call does the modexp.
    const crypto::VerifyMemoScope no_memo(nullptr);
    for (std::size_t j = 0; j + 1 < certs.size(); ++j) {
      if (!chain::plausibly_issued_by(*certs[j], *certs[j + 1])) continue;
      verify.time(
          [&] { return certs[j]->verify_signed_by(certs[j + 1]->public_key); });
    }
  }

  // chain: the sweep's analyzer (store + AIA repair probe).
  reset_memos(aia);
  chain::CompletenessOptions sweep_options;
  sweep_options.store = store;
  sweep_options.aia = &aia;
  const chain::ComplianceAnalyzer analyzer(sweep_options);
  Timer analyze;
  std::vector<chain::ComplianceReport> reports;
  for (const dataset::DomainRecord& record : records) {
    reports.push_back(
        analyze.time([&] { return analyzer.analyze(record.observation); }));
  }

  // lint over the analyzed chains.
  const lint::Linter linter(lint::LintOptions{0});
  Timer lint;
  for (std::size_t r = 0; r < records.size(); ++r) {
    lint.time([&] { return linter.lint(records[r].observation, reports[r]); });
  }

  // pathbuild with the daemon's policy (AIA completion on, no learning).
  reset_memos(aia);
  pathbuild::BuildPolicy policy;
  policy.aia_completion = true;
  pathbuild::PathBuilder builder(policy, store, &aia);
  builder.set_cache_learning(false);
  Timer build;
  for (const dataset::DomainRecord& record : records) {
    build.time([&] {
      return builder.build(record.observation.certificates,
                           record.observation.domain);
    });
  }

  // service: body decode, then the whole handler cache-off and warm.
  std::vector<ServeInput> inputs;
  for (const dataset::DomainRecord& record : records) {
    inputs.push_back(serve_input(record.observation));
  }
  Timer decode_body;
  for (const ServeInput& input : inputs) {
    const Bytes body = to_bytes(input.pem);
    const auto chain =
        decode_body.time([&] { return service::decode_chain_body(body); });
    if (!chain.ok()) out.fail(1, "decode_chain_body rejected a corpus chain");
  }

  // The handler analyzes without the AIA repair probe; time that
  // configuration too, for the render residual below.
  reset_memos(aia);
  chain::CompletenessOptions handler_options;
  handler_options.store = store;
  handler_options.aia_enabled = false;
  const chain::ComplianceAnalyzer handler_analyzer(handler_options);
  Timer analyze_handler;
  for (const dataset::DomainRecord& record : records) {
    analyze_handler.time(
        [&] { return handler_analyzer.analyze(record.observation); });
  }

  service::HandlerOptions handler_config;
  handler_config.roots = store;
  handler_config.aia = &aia;
  service::Metrics metrics;
  reset_memos(aia);
  service::ResultCache no_cache(0);
  service::RequestHandler cold(handler_config, &no_cache, &metrics);
  Timer handle_miss;
  std::vector<std::string> bodies;
  for (const ServeInput& input : inputs) {
    const net::HttpRequest request = analyze_request(input);
    const net::HttpResponse resp =
        handle_miss.time([&] { return cold.handle(request); });
    ++out.attempted;
    if (resp.status != 200) {
      out.fail(1, "handle (cache off) did not answer 200");
    }
    bodies.push_back(to_string(resp.body));
  }
  service::ResultCache cache(2 * inputs.size() + 8);
  service::RequestHandler warm(handler_config, &cache, &metrics);
  for (const ServeInput& input : inputs) warm.handle(analyze_request(input));
  Timer handle_hit;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    const net::HttpRequest request = analyze_request(inputs[r]);
    const net::HttpResponse resp =
        handle_hit.time([&] { return warm.handle(request); });
    ++out.attempted;
    const auto cached = resp.headers.find("x-cache");
    if (resp.status != 200 || cached == resp.headers.end() ||
        cached->second != "hit" || to_string(resp.body) != bodies[r]) {
      out.fail(1, "handle (warm cache) differs from the cache-off answer");
    }
  }

  out.add("corpusio.decode_us_per_record", "us", decode.mean_us());
  out.add("x509.parse_us_per_cert", "us", parse.mean_us());
  out.add("crypto.sha256_ns_per_byte", "ns/B",
          sha_bytes > 0 ? 1e9 * sha_s / static_cast<double>(sha_bytes) : 0.0);
  out.add("crypto.verify_us", "us", verify.mean_us());
  out.add("chain.analyze_us_per_record", "us", analyze.mean_us());
  out.add("lint.lint_us_per_chain", "us", lint.mean_us());
  out.add("pathbuild.build_us_per_chain", "us", build.mean_us());
  out.add("service.decode_body_us", "us", decode_body.mean_us());
  out.add("service.handle_miss_us", "us", handle_miss.mean_us());
  out.add("service.handle_hit_us", "us", handle_hit.mean_us());
  // What the handler spends beyond decode, analyze, lint and build: the
  // cache key and chain digests plus the JSON render.
  out.add("report.render_us", "us",
          handle_miss.mean_us() -
              (decode_body.mean_us() + analyze_handler.mean_us() +
               lint.mean_us() + build.mean_us()));
  return out;
}

}  // namespace chainbench
