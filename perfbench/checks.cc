#include "checks.h"

#include <algorithm>
#include <numeric>
#include <random>

#include "sim/cone.h"

namespace perfbench {

namespace {

bool check_report_and_certificate(const certcheck::BNetlist& netlist,
                                  const merced::MercedResult& result,
                                  const merced::verify::Report& report,
                                  const std::string& certificate, std::string& why) {
  if (!report.clean()) {
    why = "verify_result reported " + std::to_string(report.errors()) + " errors";
    return false;
  }
  if (!result.feasible) {
    if (!certificate.empty()) {
      why = "certificate emitted for an infeasible compile";
      return false;
    }
    return true;
  }
  const certcheck::CheckResult cert = certcheck::check_certificate(netlist, certificate);
  if (!cert.ok) {
    why = "certcheck " + cert.rule + ": " + cert.message;
    return false;
  }
  return true;
}

bool same_coverage(const merced::CoverageResult& a, const merced::CoverageResult& b) {
  return a.total_faults == b.total_faults && a.detected == b.detected &&
         a.undetected == b.undetected;
}

}  // namespace

bool check_compile(const certcheck::BNetlist& netlist, const CompileOutput& out,
                   std::string& why) {
  return check_report_and_certificate(netlist, out.result, out.report, out.certificate, why);
}

std::vector<std::size_t> oracle_sample(std::size_t num_stations, std::uint64_t seed,
                                       std::size_t count) {
  std::vector<std::size_t> all(num_stations);
  std::iota(all.begin(), all.end(), std::size_t{0});
  if (count >= num_stations) return all;
  std::mt19937_64 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

bool check_signoff(const certcheck::BNetlist& netlist, const SignoffOutput& out,
                   std::span<const std::size_t> oracle_stations, std::string& why) {
  if (out.claims_refuted != 0 || out.claims_unknown != 0 ||
      out.claims_confirmed != out.claims_checked) {
    why = "SAT cross-check: " + std::to_string(out.claims_refuted) + " refuted, " +
          std::to_string(out.claims_unknown) + " unknown of " +
          std::to_string(out.claims_checked) + " untestability claims";
    return false;
  }
  const merced::PpetSession& session = *out.session;
  if (out.coverage.size() != session.num_stations() ||
      out.golden.signatures.size() != session.num_stations() ||
      out.golden.cycles_run != session.session_cycles()) {
    why = "session outputs do not cover every station";
    return false;
  }
  for (const std::size_t s : oracle_stations) {
    merced::CoverageOptions naive;
    naive.naive = true;
    const merced::CoverageResult oracle = merced::exhaustive_coverage(session.cone(s), naive);
    if (!same_coverage(out.coverage.at(s), oracle)) {
      why = "station " + std::to_string(s) + " coverage differs from the naive oracle";
      return false;
    }
  }
  return check_report_and_certificate(netlist, *out.compiled, out.report, out.certificate,
                                      why);
}

}  // namespace perfbench
