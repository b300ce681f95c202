// The three benchmark workloads. Each runs through Merced's public API on
// one thread (jobs = 1, one saturation start):
//
//  * compile_cold  — per suite circuit s27 … s13207: parse_bench → compile
//                    (l_k 16, β 50) → verify_result → make_certificate;
//  * lk_sweep      — s5378 and s9234 prepared once in set-up, then compile →
//                    verify_result → make_certificate at l_k 8/12/16/20/24;
//  * bist_signoff  — s510, s641, s1423, s5378 compiled at l_k 18 in set-up,
//                    then per circuit: analyze → SAT cross-check of every
//                    untestability claim → PpetSession with the analysis
//                    plans → measure_coverage → run() → verify_result →
//                    make_certificate.
//
// A pass with a null Tracer makes the same calls a user would (compile()
// itself). A traced pass calls compile's phases one by one instead, each in
// its own span, and must emit exactly the same results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "checks.h"
#include "trace.h"

namespace perfbench {

/// Counts of one pass that must repeat bit for bit between passes over the
/// same inputs.
struct ExactCounts {
  std::uint64_t allocs = 0;      ///< operator-new calls during the pass
  std::uint64_t nets_cut = 0;    ///< Σ cut nets over the workload's compiles
  std::uint64_t area_units = 0;  ///< Σ 9·retimable + 23·multiplexed, feasible compiles
  std::uint64_t infeasible = 0;  ///< compiles with some ι(π) > l_k
  std::uint64_t flow_trees = 0;  ///< Σ Dijkstra trees of the saturations used
  std::uint64_t demotions = 0;   ///< Σ negative-cycle demotions
  /// FNV-1a over every emitted result the checks read (partitions, cut
  /// sets, ρ, verify reports, certificates, claims, coverage, signatures).
  std::uint64_t digest = 0;
};

/// Work done by the layers in the last pass. The compile-phase counts
/// (cells through retimed_cuts) come only from a traced pass, which makes
/// those calls itself.
struct WorkCounts {
  std::uint64_t cells = 0;           ///< netlist cells parsed
  std::uint64_t flow_trees = 0;      ///< Dijkstra trees built by saturate_network
  std::uint64_t merges = 0;          ///< assign_cbit merges
  std::uint64_t demotions = 0;       ///< plan_cut_retiming negative-cycle demotions
  std::uint64_t cut_nets = 0;        ///< cut nets handed to plan_cut_retiming
  std::uint64_t retimed_cuts = 0;    ///< of those, sealed by retiming
  std::uint64_t findings = 0;        ///< verify_result findings, any severity
  std::uint64_t cert_bytes = 0;      ///< certificate text emitted
  std::uint64_t station_cycles = 0;  ///< Σ 2^ι over the simulated stations
  std::uint64_t faults_total = 0;    ///< fault universe analyzed
  std::uint64_t faults_collapsed = 0;///< verdicts copied or inferred, not swept
  std::uint64_t faults_swept = 0;    ///< faults the coverage kernel simulated
  std::uint64_t claims_checked = 0;  ///< untestability claims put to SAT
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed` and does the workload's untimed
  /// preparation, replacing any earlier set-up.
  virtual void setup(std::uint64_t seed) = 0;

  /// One pass over the inputs. With a tracer, calls compile's phases one
  /// by one in spans and keeps the previous pass's outputs for
  /// same_as_previous(). Records WorkCounts and keeps the outputs for
  /// check().
  virtual void run_pass(Tracer* tracer) = 0;

  /// Runs every output check on the last pass.
  virtual Tally check() = 0;

  /// Exact counts of the last pass (allocs left 0; the caller measures it).
  virtual ExactCounts exact_counts() const = 0;

  /// True when the last (traced) pass emitted the same partition inputs,
  /// cut sets, ρ and certificates on every input as the pass before it
  /// (sign-off: the same coverage and signatures). `why` names the first
  /// difference.
  virtual bool same_as_previous(std::string& why) const = 0;

  const WorkCounts& work() const noexcept { return work_; }

 protected:
  WorkCounts work_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

}  // namespace perfbench
