#include "workloads.h"

#include <iostream>
#include <optional>
#include <utility>
#include <vector>

#include "analyze/analyze.h"
#include "circuits/generator.h"
#include "core/certificate.h"
#include "inputs.h"
#include "netlist/area_model.h"
#include "netlist/bench_io.h"
#include "partition/assign_cbit.h"
#include "retiming/retime_graph.h"
#include "sat/redundancy.h"
#include "sim/cone.h"

namespace perfbench {

namespace {

using merced::CircuitGraph;
using merced::MercedConfig;
using merced::MercedResult;
using merced::Netlist;
using merced::SccInfo;

constexpr std::size_t kOracleStationsPerCircuit = 3;

MercedConfig config_for(std::size_t lk) {
  MercedConfig config;
  config.lk = lk;
  config.beta = 50;
  config.multi_start = 1;
  config.jobs = 1;
  return config;
}

class Fnv {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) {
    add(s.size());
    add(s.data(), s.size());
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t emitted_area(const MercedResult& r) {
  if (!r.feasible) return 0;
  return merced::kACellFromDffArea * r.area.exact_retimable_cuts +
         merced::kACellWithMuxArea * r.area.exact_multiplexed_cuts;
}

void add_result(ExactCounts& c, Fnv& h, const MercedResult& r) {
  c.nets_cut += r.cuts.nets_cut;
  c.area_units += emitted_area(r);
  c.infeasible += r.feasible ? 0 : 1;
  c.flow_trees += r.flow_iterations;
  c.demotions += r.retiming.negative_cycle_demotions;
  h.add(r.feasible ? 1 : 0);
  h.add_all(r.partition_inputs);
  h.add_all(r.cut_net_ids);
  h.add_all(r.retiming.rho);
  h.add_all(r.retiming.retimable);
  h.add_all(r.retiming.multiplexed);
}

void add_report(Fnv& h, const merced::verify::Report& report) {
  h.add(report.findings.size());
  h.add(report.errors());
}

/// The phase-by-phase equivalent of merced::compile(prepared, config) for
/// one start: the same calls in the same order, each in its own span, and
/// the same assembly of the result.
MercedResult compile_phases(Tracer* t, const Netlist& netlist, const CircuitGraph& graph,
                            const SccInfo& sccs, const merced::SaturationResult& saturation,
                            const MercedConfig& config, WorkCounts& work) {
  MercedResult r;
  r.stats = traced(t, "netlist.compute_stats", Layer::kNetlist,
                   [&] { return merced::compute_stats(netlist); });
  r.num_sccs = sccs.count();
  r.dffs_on_scc = static_cast<std::size_t>(sccs.total_dffs_on_scc());
  r.flow_iterations = saturation.iterations;

  merced::MakeGroupParams mg;
  mg.lk = config.lk;
  mg.beta = config.beta;
  const merced::MakeGroupResult groups =
      traced(t, "partition.make_group", Layer::kPartition,
             [&] { return merced::make_group(graph, sccs, saturation, mg); });
  merced::AssignCbitResult assigned =
      traced(t, "partition.assign_cbit", Layer::kPartition,
             [&] { return merced::assign_cbit(graph, groups.clustering, config.lk); });
  work.merges += assigned.merges_performed;
  r.feasible = groups.feasible;
  r.partitions = std::move(assigned.partitions);
  r.partition_inputs = std::move(assigned.input_counts);
  {
    const Span span(t, "partition.cut_report", Layer::kPartition);
    r.cut_net_ids = merced::cut_nets(graph, r.partitions);
    r.cuts = merced::make_cut_report(graph, r.partitions, sccs);
  }

  const merced::RetimeGraph rgraph = traced(t, "graph.retime_graph", Layer::kGraph,
                                            [&] { return merced::RetimeGraph(graph); });
  r.retiming = traced(t, "retiming.plan_cut_retiming", Layer::kRetiming, [&] {
    return merced::plan_cut_retiming(graph, rgraph, sccs, r.cut_net_ids, r.partitions);
  });
  work.demotions += r.retiming.negative_cycle_demotions;
  work.cut_nets += r.cut_net_ids.size();
  work.retimed_cuts += r.retiming.retimable.size();

  {
    const Span span(t, "core.area_report", Layer::kCore);
    r.area.circuit_area = r.stats.estimated_area;
    const std::size_t total_cuts = r.cut_net_ids.size();
    r.area.multiplexed_cuts = std::min(total_cuts, r.retiming.scc_aggregate_demotions);
    r.area.retimable_cuts = total_cuts - r.area.multiplexed_cuts;
    r.area.exact_retimable_cuts = r.retiming.retimable.size();
    r.area.exact_multiplexed_cuts = r.retiming.multiplexed.size();
    r.cbit_cost = merced::assign_cbit_cost(r.partition_inputs);
  }
  return r;
}

merced::CertificateInfo cert_info(const std::string& circuit, const MercedConfig& config) {
  merced::CertificateInfo info;
  info.tool = "merced_perfbench";
  info.circuit = circuit;
  info.lk = config.lk;
  info.beta = config.beta;
  return info;
}

/// verify_result and make_certificate on a finished compile.
CompileOutput finish_compile(Tracer* t, std::size_t input, const std::string& circuit,
                             const Netlist& netlist, const CircuitGraph& graph,
                             const SccInfo& sccs, MercedResult result,
                             const MercedConfig& config, WorkCounts& work) {
  CompileOutput out;
  out.input = input;
  out.lk = config.lk;
  out.report = traced(t, "verify.verify_result", Layer::kVerify,
                      [&] { return merced::verify_result(netlist, result, config); });
  if (result.feasible) {
    out.certificate = traced(t, "core.make_certificate", Layer::kCore, [&] {
      return merced::make_certificate(netlist, graph, sccs, result,
                                      cert_info(circuit, config));
    });
  }
  work.findings += out.report.findings.size();
  work.cert_bytes += out.certificate.size();
  out.result = std::move(result);
  return out;
}

bool same_compile(const CompileOutput& a, const CompileOutput& b, std::string& why) {
  const std::string at = "input " + std::to_string(a.input) + " l_k " + std::to_string(a.lk);
  if (a.input != b.input || a.lk != b.lk) {
    why = "operation order differs at " + at;
  } else if (a.result.feasible != b.result.feasible) {
    why = "feasibility differs at " + at;
  } else if (a.result.partition_inputs != b.result.partition_inputs) {
    why = "partition inputs differ at " + at;
  } else if (a.result.cut_net_ids != b.result.cut_net_ids) {
    why = "cut set differs at " + at;
  } else if (a.result.retiming.rho != b.result.retiming.rho) {
    why = "retiming rho differs at " + at;
  } else if (a.certificate != b.certificate) {
    why = "certificate differs at " + at;
  } else {
    return true;
  }
  return false;
}

/// Lazily parsed certificate-checker netlists, one per input. The parse is
/// the checker's own and happens outside any timed window.
class CheckerNetlists {
 public:
  const certcheck::BNetlist& get(const std::vector<BenchInput>& inputs, std::size_t i) {
    if (parsed_.size() != inputs.size()) parsed_.assign(inputs.size(), std::nullopt);
    if (!parsed_[i]) parsed_[i] = certcheck::parse_bench(inputs[i].text);
    return *parsed_[i];
  }
  void clear() { parsed_.clear(); }

 private:
  std::vector<std::optional<certcheck::BNetlist>> parsed_;
};

/// What every workload keeps: its inputs, the outputs of its last pass (and
/// of the pass before a traced one), and the certificate checker's parse
/// of each input.
template <typename Output>
class WorkloadState : public Workload {
 protected:
  void set_inputs(std::vector<BenchInput> inputs) {
    inputs_ = std::move(inputs);
    checker_.clear();
    outputs_.clear();
    previous_.clear();
  }

  /// Frees the last pass's outputs, or with a tracer keeps them for
  /// same_as_previous(): an untraced run's memory then never holds two
  /// passes, so peak RSS does not depend on the number of passes. Every
  /// pass starts from a zero-capacity outputs_, so the benchmark's own
  /// allocations inside the pass are the same in every pass.
  void begin_pass(const Tracer* t) {
    previous_ = t != nullptr ? std::move(outputs_) : std::vector<Output>();
    outputs_ = std::vector<Output>();
    work_ = {};
  }

  bool same_size_as_previous(std::string& why) const {
    if (previous_.size() == outputs_.size()) return true;
    why = "operation count differs between passes";
    return false;
  }

  std::vector<BenchInput> inputs_;
  std::vector<Output> outputs_;
  std::vector<Output> previous_;
  CheckerNetlists checker_;
};

/// Shared by the two compile workloads: checks and exact counts.
class CompileWorkloadBase : public WorkloadState<CompileOutput> {
 public:
  Tally check() override {
    Tally tally;
    for (const CompileOutput& out : outputs_) {
      std::string why;
      const bool ok = check_compile(checker_.get(inputs_, out.input), out, why);
      if (!ok) report_failure(out, why);
      tally.add(ok);
    }
    return tally;
  }

  ExactCounts exact_counts() const override {
    ExactCounts c;
    Fnv h;
    for (const CompileOutput& out : outputs_) {
      add_result(c, h, out.result);
      add_report(h, out.report);
      h.add(out.certificate);
    }
    c.digest = h.value();
    return c;
  }

  bool same_as_previous(std::string& why) const override {
    if (!same_size_as_previous(why)) return false;
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      if (!same_compile(previous_[i], outputs_[i], why)) return false;
    }
    return true;
  }

 private:
  void report_failure(const CompileOutput& out, const std::string& why) const {
    std::cerr << "perfbench: FAILED " << inputs_[out.input].name << " l_k " << out.lk << ": "
              << why << "\n";
  }
};

// compile_cold: the one-shot compile a DFT engineer runs on each design.
class CompileCold final : public CompileWorkloadBase {
 public:
  void setup(std::uint64_t seed) override {
    set_inputs(make_inputs({"s27", "s510", "s420.1", "s641", "s713", "s820", "s832", "s838.1",
                            "s1423", "s5378", "s9234.1", "s9234", "s13207.1", "s13207"},
                           seed));
  }

  void run_pass(Tracer* t) override {
    begin_pass(t);
    const Span pass(t, "pass", Layer::kNone);
    const MercedConfig config = config_for(16);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Span op(t, "compile_op", Layer::kNone);
      const BenchInput& in = inputs_[i];
      const Netlist netlist = traced(t, "netlist.parse_bench", Layer::kNetlist,
                                     [&] { return merced::parse_bench(in.text, in.name); });
      if (t == nullptr) {
        const merced::PreparedCircuit prepared(netlist, config.flow, config.multi_start,
                                               config.jobs);
        outputs_.push_back(finish_compile(t, i, in.name, netlist, prepared.graph,
                                          prepared.sccs, merced::compile(prepared, config),
                                          config, work_));
        continue;
      }
      work_.cells += netlist.size();
      const CircuitGraph graph = traced(t, "graph.circuit_graph", Layer::kGraph,
                                        [&] { return CircuitGraph(netlist); });
      const SccInfo sccs = traced(t, "graph.find_sccs", Layer::kGraph,
                                  [&] { return merced::find_sccs(graph); });
      const merced::SaturationResult saturation =
          traced(t, "flow.saturate_network", Layer::kFlow,
                 [&] { return merced::saturate_network(graph, config.flow); });
      work_.flow_trees += saturation.iterations;
      MercedResult r = compile_phases(t, netlist, graph, sccs, saturation, config, work_);
      outputs_.push_back(
          finish_compile(t, i, in.name, netlist, graph, sccs, std::move(r), config, work_));
    }
  }
};

// lk_sweep: the Fig. 4 area-versus-test-time exploration. Graph, SCCs and
// saturation are prepared once per circuit; partition and retiming run at
// every l_k.
class LkSweep final : public CompileWorkloadBase {
 public:
  void setup(std::uint64_t seed) override {
    prepared_.clear();
    netlists_.clear();
    set_inputs(make_inputs({"s5378", "s9234"}, seed));
    const MercedConfig config = config_for(16);
    for (const BenchInput& in : inputs_) {
      netlists_.push_back(std::make_unique<Netlist>(merced::parse_bench(in.text, in.name)));
      prepared_.push_back(std::make_unique<merced::PreparedCircuit>(
          *netlists_.back(), config.flow, config.multi_start, config.jobs));
    }
  }

  void run_pass(Tracer* t) override {
    begin_pass(t);
    const Span pass(t, "pass", Layer::kNone);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const merced::PreparedCircuit& p = *prepared_[i];
      for (const std::size_t lk : {8u, 12u, 16u, 20u, 24u}) {
        const Span op(t, "compile_op", Layer::kNone);
        const MercedConfig config = config_for(lk);
        MercedResult r = t == nullptr ? merced::compile(p, config)
                                      : compile_phases(t, *p.netlist, p.graph, p.sccs,
                                                       p.saturation(), config, work_);
        outputs_.push_back(finish_compile(t, i, inputs_[i].name, *p.netlist, p.graph, p.sccs,
                                          std::move(r), config, work_));
      }
    }
  }

 private:
  std::vector<std::unique_ptr<Netlist>> netlists_;
  std::vector<std::unique_ptr<merced::PreparedCircuit>> prepared_;
};

// bist_signoff: what ships to the tester. Every compile layer is idle; the
// analyzer, the SAT prover, the coverage kernel and the cycle-by-cycle
// session simulation do the work.
class BistSignoff final : public WorkloadState<SignoffOutput> {
 public:
  void setup(std::uint64_t seed) override {
    compiled_.clear();
    prepared_.clear();
    netlists_.clear();
    seed_ = seed;
    set_inputs(make_inputs({"s510", "s641", "s1423", "s5378"}, seed));
    const MercedConfig config = config_for(kLk);
    for (const BenchInput& in : inputs_) {
      netlists_.push_back(std::make_unique<Netlist>(merced::parse_bench(in.text, in.name)));
      prepared_.push_back(std::make_unique<merced::PreparedCircuit>(
          *netlists_.back(), config.flow, config.multi_start, config.jobs));
      compiled_.push_back(merced::compile(*prepared_.back(), config));
    }
  }

  void run_pass(Tracer* t) override {
    begin_pass(t);
    const Span pass(t, "pass", Layer::kNone);
    const MercedConfig config = config_for(kLk);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Span op(t, "signoff_op", Layer::kNone);
      outputs_.push_back(signoff(t, i, config));
    }
  }

  Tally check() override {
    Tally tally;
    for (const SignoffOutput& out : outputs_) {
      const std::vector<std::size_t> sample =
          oracle_sample(out.session->num_stations(), merced::derive_seed(seed_, out.input + 1),
                        kOracleStationsPerCircuit);
      std::string why;
      const bool ok = check_signoff(checker_.get(inputs_, out.input), out, sample, why);
      if (!ok) {
        std::cerr << "perfbench: FAILED sign-off of " << inputs_[out.input].name << ": " << why
                  << "\n";
      }
      tally.add(ok);
    }
    return tally;
  }

  ExactCounts exact_counts() const override {
    ExactCounts c;
    Fnv h;
    for (const MercedResult& r : compiled_) add_result(c, h, r);
    for (const SignoffOutput& out : outputs_) {
      h.add(out.claims_checked);
      h.add(out.claims_confirmed);
      h.add(out.claims_unknown);
      h.add(out.claims_refuted);
      h.add_all(out.golden.signatures);
      h.add(out.golden.cycles_run);
      for (const merced::CoverageResult& cov : out.coverage) {
        h.add(cov.total_faults);
        h.add(cov.detected);
        for (const merced::Fault& f : cov.undetected) {
          h.add(f.gate);
          h.add((static_cast<std::uint64_t>(f.site) << 32) | (std::uint64_t{f.pin} << 1) |
                (f.stuck_value ? 1 : 0));
        }
      }
      add_report(h, out.report);
      h.add(out.certificate);
    }
    c.digest = h.value();
    return c;
  }

  bool same_as_previous(std::string& why) const override {
    if (!same_size_as_previous(why)) return false;
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      const SignoffOutput& a = previous_[i];
      const SignoffOutput& b = outputs_[i];
      const std::string at = "sign-off of " + inputs_[b.input].name;
      if (a.golden.signatures != b.golden.signatures) {
        why = "golden signatures differ at " + at;
      } else if (a.claims_confirmed != b.claims_confirmed ||
                 a.claims_checked != b.claims_checked) {
        why = "SAT cross-check differs at " + at;
      } else if (a.certificate != b.certificate) {
        why = "certificate differs at " + at;
      } else {
        bool same_cov = a.coverage.size() == b.coverage.size();
        for (std::size_t s = 0; same_cov && s < a.coverage.size(); ++s) {
          same_cov = a.coverage[s].detected == b.coverage[s].detected &&
                     a.coverage[s].undetected == b.coverage[s].undetected;
        }
        if (same_cov) continue;
        why = "coverage differs at " + at;
      }
      return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kLk = 18;

  SignoffOutput signoff(Tracer* t, std::size_t i, const MercedConfig& config) {
    SignoffOutput out;
    out.input = i;
    out.compiled = &compiled_[i];
    const MercedResult& r = compiled_[i];
    const Netlist& netlist = *netlists_[i];
    const CircuitGraph& graph = prepared_[i]->graph;

    const merced::analyze::CircuitAnalysis analysis =
        traced(t, "analyze.analyze_circuit", Layer::kAnalyze,
               [&] { return merced::analyze::analyze_circuit(graph, r.partitions); });
    for (std::size_t ci = 0; ci < r.partitions.count(); ++ci) {
      const merced::analyze::CutAnalysis& cut = analysis.cuts[ci];
      if (cut.untestable == 0) continue;
      const merced::ConeSimulator cone = traced(t, "sim.cone", Layer::kSim, [&] {
        return merced::ConeSimulator(graph, r.partitions, ci);
      });
      const std::vector<merced::Fault> faults =
          traced(t, "sim.cluster_faults", Layer::kSim, [&] { return cone.cluster_faults(); });
      const merced::sat::UntestableCrossCheck cc =
          traced(t, "sat.cross_check_untestable", Layer::kSat, [&] {
            return merced::sat::cross_check_untestable(cone, faults, cut.untestable_fault);
          });
      out.claims_checked += cc.checked;
      out.claims_confirmed += cc.confirmed;
      out.claims_unknown += cc.unknown;
      out.claims_refuted += cc.disagreements.size();
    }

    {
      const Span span(t, "core.session_build", Layer::kCore);
      out.session =
          std::make_unique<merced::PpetSession>(graph, r, /*psa_width=*/16, config.jobs);
      std::vector<merced::FaultPlan> plans;
      plans.reserve(out.session->num_stations());
      for (std::size_t s = 0; s < out.session->num_stations(); ++s) {
        plans.push_back(analysis.cuts[out.session->station(s).partition_index].plan);
      }
      out.session->set_fault_plans(std::move(plans));
    }
    out.coverage = traced(t, "sim.measure_coverage", Layer::kSim,
                          [&] { return out.session->measure_coverage(kLk); });
    out.golden =
        traced(t, "core.session_run", Layer::kCore, [&] { return out.session->run(); });
    out.report = traced(t, "verify.verify_result", Layer::kVerify,
                        [&] { return merced::verify_result(netlist, r, config); });
    if (r.feasible) {
      out.certificate = traced(t, "core.make_certificate", Layer::kCore, [&] {
        return merced::make_certificate(netlist, graph, prepared_[i]->sccs, r,
                                        cert_info(inputs_[i].name, config));
      });
    }

    for (const merced::analyze::CutAnalysis& cut : analysis.cuts) {
      work_.faults_total += cut.total_faults;
      work_.faults_collapsed += cut.copied + cut.inferred;
    }
    work_.claims_checked += out.claims_checked;
    for (std::size_t s = 0; s < out.session->num_stations(); ++s) {
      work_.station_cycles += out.session->station(s).cycles;
    }
    for (const merced::CoverageResult& cov : out.coverage) {
      work_.faults_swept += cov.swept_faults;
    }
    work_.findings += out.report.findings.size();
    work_.cert_bytes += out.certificate.size();
    return out;
  }

  std::uint64_t seed_ = 0;
  std::vector<std::unique_ptr<Netlist>> netlists_;
  std::vector<std::unique_ptr<merced::PreparedCircuit>> prepared_;
  std::vector<MercedResult> compiled_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "compile_cold") return std::make_unique<CompileCold>();
  if (name == "lk_sweep") return std::make_unique<LkSweep>();
  if (name == "bist_signoff") return std::make_unique<BistSignoff>();
  return nullptr;
}

}  // namespace perfbench
