// The benchmark's output checks must fire: each corrupted output below is
// counted as a failed operation, while the same output uncorrupted passes.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/analyze.h"
#include "checks.h"
#include "core/certificate.h"
#include "inputs.h"
#include "netlist/bench_io.h"

namespace perfbench {
namespace {

merced::CertificateInfo info_for(const std::string& circuit, std::size_t lk) {
  merced::CertificateInfo info;
  info.tool = "merced_perfbench";
  info.circuit = circuit;
  info.lk = lk;
  info.beta = 50;
  return info;
}

TEST(PerfbenchChecks, CertificateWithADroppedCutFailsItsCompile) {
  const BenchInput in = make_input("s510", 0);
  const merced::Netlist netlist = merced::parse_bench(in.text, in.name);
  merced::MercedConfig config;
  config.lk = 16;
  const merced::PreparedCircuit prepared(netlist, config.flow);
  CompileOutput out;
  out.lk = config.lk;
  out.result = merced::compile(prepared, config);
  ASSERT_TRUE(out.result.feasible);
  ASSERT_FALSE(out.result.cut_net_ids.empty());
  out.report = merced::verify_result(netlist, out.result, config);
  out.certificate = merced::make_certificate(netlist, prepared.graph, prepared.sccs,
                                             out.result, info_for(in.name, config.lk));
  const certcheck::BNetlist checker_netlist = certcheck::parse_bench(in.text);

  Tally tally;
  std::string why;
  tally.add(check_compile(checker_netlist, out, why));
  EXPECT_EQ(tally.failed, 0u) << why;

  // What --inject-defect drop-cut does: the certificate claims one cut
  // fewer than the partition has.
  merced::MercedResult dropped = out.result;
  dropped.cut_net_ids.pop_back();
  out.certificate = merced::make_certificate(netlist, prepared.graph, prepared.sccs, dropped,
                                             info_for(in.name, config.lk));
  tally.add(check_compile(checker_netlist, out, why));
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_NE(why.find("certcheck CERT-"), std::string::npos) << why;
}

TEST(PerfbenchChecks, CoverageWithAFlippedVerdictFailsItsSignoff) {
  const BenchInput in = make_input("s510", 0);
  const merced::Netlist netlist = merced::parse_bench(in.text, in.name);
  merced::MercedConfig config;
  config.lk = 18;
  const merced::PreparedCircuit prepared(netlist, config.flow);
  const merced::MercedResult result = merced::compile(prepared, config);
  ASSERT_TRUE(result.feasible);

  SignoffOutput out;
  out.compiled = &result;
  const merced::analyze::CircuitAnalysis analysis =
      merced::analyze::analyze_circuit(prepared.graph, result.partitions);
  out.session = std::make_unique<merced::PpetSession>(prepared.graph, result);
  std::vector<merced::FaultPlan> plans;
  for (std::size_t s = 0; s < out.session->num_stations(); ++s) {
    plans.push_back(analysis.cuts[out.session->station(s).partition_index].plan);
  }
  out.session->set_fault_plans(std::move(plans));
  out.coverage = out.session->measure_coverage(config.lk);
  out.golden = out.session->run();
  out.report = merced::verify_result(netlist, result, config);
  out.certificate = merced::make_certificate(netlist, prepared.graph, prepared.sccs, result,
                                             info_for(in.name, config.lk));
  const certcheck::BNetlist checker_netlist = certcheck::parse_bench(in.text);
  const std::size_t stations = out.session->num_stations();
  ASSERT_GT(stations, 0u);
  const std::vector<std::size_t> sample = oracle_sample(stations, 7, stations);
  ASSERT_EQ(sample.size(), stations);

  Tally tally;
  std::string why;
  tally.add(check_signoff(checker_netlist, out, sample, why));
  EXPECT_EQ(tally.failed, 0u) << why;

  // Flip one verdict of station 0: an undetected fault becomes detected,
  // or else a detected fault becomes undetected.
  merced::CoverageResult& cov = out.coverage[0];
  if (!cov.undetected.empty()) {
    cov.undetected.erase(cov.undetected.begin());
    ++cov.detected;
  } else {
    ASSERT_GT(cov.detected, 0u);
    --cov.detected;
    cov.undetected.push_back(out.session->cone(0).cluster_faults().front());
  }
  tally.add(check_signoff(checker_netlist, out, sample, why));
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_NE(why.find("naive oracle"), std::string::npos) << why;
}

TEST(PerfbenchChecks, OracleSampleIsSeededDistinctAndInRange) {
  const std::vector<std::size_t> a = oracle_sample(40, 5, 3);
  EXPECT_EQ(a, oracle_sample(40, 5, 3));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
  EXPECT_LT(a.back(), 40u);
  EXPECT_EQ(oracle_sample(2, 5, 3).size(), 2u);
}

TEST(PerfbenchInputs, SeedZeroIsTheRegistryCircuitAndOtherSeedsDiffer) {
  EXPECT_EQ(make_input("s510", 0).text, make_input("s510", 0).text);
  EXPECT_NE(make_input("s510", 0).text, make_input("s510", 1).text);
  EXPECT_EQ(make_input("s27", 0).text, make_input("s27", 9).text);
}

}  // namespace
}  // namespace perfbench
