// Output checks. They run outside the timed window; an operation whose
// outputs fail any check is counted as failed.
//
//  * compile (compile_cold, lk_sweep): the verify_result report is clean,
//    and every feasible compile's certificate passes the independent
//    checker (examples/certcheck: own .bench parser, no compiler linkage);
//  * sign-off (bist_signoff): additionally every SAT cross-check of a
//    static untestability claim is confirmed (none refuted, none unknown),
//    the golden session covers every station, and a seeded sample of
//    stations gets the same coverage from the naive oracle
//    (exhaustive_coverage with CoverageOptions::naive).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check.h"
#include "core/merced.h"
#include "core/ppet_session.h"

namespace perfbench {

/// Everything one compile operation emits.
struct CompileOutput {
  std::size_t input = 0;  ///< index into the workload's inputs
  std::size_t lk = 0;
  merced::MercedResult result;
  merced::verify::Report report;
  std::string certificate;  ///< empty for an infeasible compile
};

/// Everything one sign-off operation emits.
struct SignoffOutput {
  std::size_t input = 0;
  const merced::MercedResult* compiled = nullptr;  ///< the set-up compile signed off
  std::size_t claims_checked = 0;
  std::size_t claims_confirmed = 0;
  std::size_t claims_unknown = 0;
  std::size_t claims_refuted = 0;
  std::unique_ptr<merced::PpetSession> session;  ///< kept for the oracle sample
  std::vector<merced::CoverageResult> coverage;  ///< per station
  merced::SessionResult golden;
  merced::verify::Report report;
  std::string certificate;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Checks one compile's outputs against `netlist` (the certificate
/// checker's own parse of the input text). On failure, `why` names the
/// first failed check.
bool check_compile(const certcheck::BNetlist& netlist, const CompileOutput& out,
                   std::string& why);

/// `count` distinct station indices out of `num_stations`, drawn from
/// `seed` (all stations when count >= num_stations), ascending.
std::vector<std::size_t> oracle_sample(std::size_t num_stations, std::uint64_t seed,
                                       std::size_t count);

/// Checks one sign-off's outputs; `oracle_stations` are re-swept with the
/// naive oracle. On failure, `why` names the first failed check.
bool check_signoff(const certcheck::BNetlist& netlist, const SignoffOutput& out,
                   std::span<const std::size_t> oracle_stations, std::string& why);

}  // namespace perfbench
