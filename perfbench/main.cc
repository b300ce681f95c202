// merced_perfbench — end-to-end benchmark of the Merced BIST compiler.
//
//   merced_perfbench --workload compile_cold|lk_sweep|bist_signoff
//                    --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Runs one workload in this process on one thread. The set-up is repeated
// at least kMinSetupRuns times and for at least kMinSetupSeconds, and its
// median is reported as setup_s. Then:
//
//  * --trace 0: untraced passes, at least one, for about S seconds: another
//    pass starts only if it is expected to end within half a pass of S.
//    Reports the median pass as pass_s plus the quality metrics of the
//    workload's own compiles.
//  * --trace 1: one untraced pass, then one traced pass that calls
//    compile's phases one by one in spans; reports each layer's self time,
//    allocation count and work counts, and trace.overhead_s.
//
// Outputs are checked outside the timed window. Exact counts (allocations,
// nets cut, area, Dijkstra trees, demotions, and a digest of every emitted
// result) must repeat between passes; the run fails loudly if one does
// not. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bist/polynomials.h"
#include "obs/alloc_hook.h"
#include "obs/resource.h"
#include "workloads.h"

namespace {

using perfbench::ExactCounts;
using perfbench::Layer;
using perfbench::Tally;
using perfbench::Tracer;
using perfbench::Workload;

constexpr std::size_t kMinSetupRuns = 3;
// A set-up of a few milliseconds is repeated until this much time has
// passed, so its median is not one scheduler hiccup.
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: merced_perfbench --workload compile_cold|lk_sweep|bist_signoff"
               " --seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc() || end != value.data() + value.size()) {
    usage(flag + " expects a non-negative integer, got '" + value + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage("--trace expects 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t allocations() { return merced::obs::alloc_stats().allocations; }

/// Metrics in output order, printed with every significant digit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream v;
    v.precision(17);
    v << value;
    entries_.push_back("\"" + name + "\": {\"value\": " + v.str() + ", \"unit\": \"" + unit +
                       "\"}");
  }
  void add_count(const std::string& name, std::uint64_t value, const std::string& unit) {
    entries_.push_back("\"" + name + "\": {\"value\": " + std::to_string(value) +
                       ", \"unit\": \"" + unit + "\"}");
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + entries_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

struct PassRecord {
  double seconds = 0;
  double check_seconds = 0;
  bool checked = false;  ///< false: verdicts taken from the identical first pass
  ExactCounts counts;
  Tally tally;
};

/// One pass: timed, then checked outside the timed window. A pass whose
/// result digest equals `first`'s emitted the same outputs bit for bit, so
/// its operations get `first`'s verdicts instead of a second check.
PassRecord run_pass(Workload& w, Tracer* tracer, const PassRecord* first) {
  PassRecord rec;
  const std::uint64_t a0 = allocations();
  const auto t0 = std::chrono::steady_clock::now();
  w.run_pass(tracer);
  rec.seconds = seconds_since(t0);
  const std::uint64_t a1 = allocations();
  rec.counts = w.exact_counts();
  rec.counts.allocs = a1 - a0;
  if (first != nullptr && first->counts.digest == rec.counts.digest) {
    rec.tally = first->tally;
    return rec;
  }
  const auto t1 = std::chrono::steady_clock::now();
  rec.tally = w.check();
  rec.check_seconds = seconds_since(t1);
  rec.checked = true;
  return rec;
}

void print_pass(const char* label, const PassRecord& p) {
  std::cout << label << ": " << p.seconds << " s, " << p.tally.attempted << " operations, "
            << p.tally.failed << " failed, " << p.counts.allocs << " allocations, "
            << p.counts.nets_cut << " nets cut, " << p.counts.area_units << " area units, "
            << p.counts.infeasible << " infeasible compiles; ";
  if (p.checked) {
    std::cout << "checked in " << p.check_seconds << " s\n";
  } else {
    std::cout << "outputs identical to the first pass\n";
  }
}

/// Compares `got` with `want` field by field; reports every mismatch.
bool same_counts(const ExactCounts& want, const ExactCounts& got, const char* what) {
  bool same = true;
  auto cmp = [&](const char* field, std::uint64_t a, std::uint64_t b) {
    if (a == b) return;
    std::cerr << "perfbench: EXACT COUNT MISMATCH (" << what << "): " << field << " " << a
              << " != " << b << "\n";
    same = false;
  };
  cmp("allocations", want.allocs, got.allocs);
  cmp("nets_cut", want.nets_cut, got.nets_cut);
  cmp("area_units", want.area_units, got.area_units);
  cmp("infeasible_compiles", want.infeasible, got.infeasible);
  cmp("flow_trees", want.flow_trees, got.flow_trees);
  cmp("demotions", want.demotions, got.demotions);
  cmp("result_digest", want.digest, got.digest);
  return same;
}

void add_layer_metrics(Metrics& m, const Tracer& tracer, const Workload& w, double traced_s,
                       double untraced_s, const ExactCounts& counts) {
  const auto layers = tracer.layer_totals();
  const auto layer = [&](Layer l) { return layers[static_cast<std::size_t>(l)]; };
  const auto named_s = [&](const char* name) { return tracer.named_totals(name).seconds; };
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const perfbench::WorkCounts& work = w.work();

  m.add("netlist.parse_s", named_s("netlist.parse_bench"), "s");
  m.add("netlist.stats_s", named_s("netlist.compute_stats"), "s");
  m.add_count("netlist.parse_allocs", layer(Layer::kNetlist).allocs, "count");
  m.add_count("netlist.cells", work.cells, "count");

  m.add("graph.build_s", layer(Layer::kGraph).seconds, "s");
  m.add_count("graph.build_allocs", layer(Layer::kGraph).allocs, "count");

  const double flow_s = layer(Layer::kFlow).seconds;
  m.add("flow.saturate_s", flow_s, "s");
  m.add_count("flow.saturate_allocs", layer(Layer::kFlow).allocs, "count");
  m.add_count("flow.trees", work.flow_trees, "count");
  m.add("flow.us_per_tree", ratio(flow_s * 1e6, static_cast<double>(work.flow_trees)), "us");

  m.add("partition.make_group_s", named_s("partition.make_group"), "s");
  m.add("partition.assign_cbit_s", named_s("partition.assign_cbit"), "s");
  m.add("partition.cut_report_s", named_s("partition.cut_report"), "s");
  m.add_count("partition.allocs", layer(Layer::kPartition).allocs, "count");
  m.add_count("partition.merges", work.merges, "count");
  m.add_count("partition.infeasible_compiles", counts.infeasible, "count");

  m.add("retiming.plan_s", layer(Layer::kRetiming).seconds, "s");
  m.add_count("retiming.plan_allocs", layer(Layer::kRetiming).allocs, "count");
  m.add_count("retiming.negative_cycle_demotions", work.demotions, "count");
  m.add("retiming.retimable_share",
        ratio(static_cast<double>(work.retimed_cuts), static_cast<double>(work.cut_nets)),
        "ratio");

  m.add("verify.s", layer(Layer::kVerify).seconds, "s");
  m.add_count("verify.allocs", layer(Layer::kVerify).allocs, "count");
  m.add_count("verify.findings", work.findings, "count");

  const double run_s = named_s("core.session_run");
  m.add("core.area_s", named_s("core.area_report"), "s");
  m.add("core.cert_s", named_s("core.make_certificate"), "s");
  m.add_count("core.cert_bytes", work.cert_bytes, "bytes");
  m.add("core.session_build_s", named_s("core.session_build"), "s");
  m.add("core.session_run_s", run_s, "s");
  m.add_count("core.session_cycles", work.station_cycles, "count");
  m.add("core.session_mcycles_per_s",
        ratio(static_cast<double>(work.station_cycles) * 1e-6, run_s), "Mcycles/s");
  m.add_count("core.allocs", layer(Layer::kCore).allocs, "count");

  m.add("analyze.s", layer(Layer::kAnalyze).seconds, "s");
  m.add_count("analyze.allocs", layer(Layer::kAnalyze).allocs, "count");
  m.add("analyze.collapse_ratio",
        ratio(static_cast<double>(work.faults_collapsed),
              static_cast<double>(work.faults_total)),
        "ratio");

  m.add("sim.cone_build_s", named_s("sim.cone") + named_s("sim.cluster_faults"), "s");
  m.add("sim.coverage_s", named_s("sim.measure_coverage"), "s");
  m.add_count("sim.faults_swept", work.faults_swept, "count");
  m.add_count("sim.allocs", layer(Layer::kSim).allocs, "count");

  m.add("sat.cross_check_s", layer(Layer::kSat).seconds, "s");
  m.add_count("sat.claims_checked", work.claims_checked, "count");
  m.add_count("sat.allocs", layer(Layer::kSat).allocs, "count");

  double attributed = 0;
  for (const perfbench::SelfTotals& t : layers) attributed += t.seconds;
  m.add("trace.pass_s", traced_s, "s");
  m.add("trace.overhead_s", traced_s - untraced_s, "s");
  m.add("trace.attributed_share", ratio(attributed, traced_s), "ratio");
  m.add_count("trace.spans", tracer.spans().size(), "count");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::unique_ptr<Workload> workload = perfbench::make_workload(args.workload);
  if (!workload) usage("unknown workload '" + args.workload + "'");

  std::cout << "host: cpu \"" << merced::obs::cpu_model_string() << "\", nproc "
            << std::thread::hardware_concurrency() << ", threads used 1\n"
            << "workload " << args.workload << ", seed " << args.seed << ", seconds "
            << args.seconds << ", trace " << (args.trace ? 1 : 0) << "\n";

  try {
    // Fill the library's first-use tables (the LFSR tap table) so the
    // allocation counts of the first pass match those of later passes.
    merced::primitive_taps(merced::kMinLfsrDegree);

    std::vector<double> setup_times;
    double setup_total = 0;
    while (setup_times.size() < kMinSetupRuns || setup_total < kMinSetupSeconds) {
      const auto t0 = std::chrono::steady_clock::now();
      workload->setup(args.seed);
      setup_times.push_back(seconds_since(t0));
      setup_total += setup_times.back();
    }
    std::cout << "setup: " << setup_times.size() << " runs, median " << median(setup_times)
              << " s, min " << *std::min_element(setup_times.begin(), setup_times.end())
              << " s, max " << *std::max_element(setup_times.begin(), setup_times.end())
              << " s\n";

    Tally tally;
    bool repeatable = true;
    Metrics metrics;
    std::vector<PassRecord> passes;
    double total = 0;
    do {
      PassRecord pass = run_pass(*workload, nullptr, passes.empty() ? nullptr : &passes[0]);
      passes.push_back(std::move(pass));
      const PassRecord& p = passes.back();
      print_pass("pass", p);
      tally.attempted += p.tally.attempted;
      tally.failed += p.tally.failed;
      total += p.seconds;
      if (passes.size() > 1) {
        repeatable &= same_counts(passes.front().counts, p.counts, "untraced passes");
      }
    } while (!args.trace && total + passes.back().seconds / 2 < args.seconds);
    const ExactCounts& counts = passes.front().counts;

    if (!args.trace) {
      std::vector<double> times;
      for (const PassRecord& p : passes) times.push_back(p.seconds);
      metrics.add("setup_s", median(setup_times), "s");
      metrics.add("pass_s", median(times), "s");
      metrics.add("peak_rss_mb", static_cast<double>(merced::obs::peak_rss_bytes()) / 1e6,
                  "MB");
      metrics.add_count("emitted_cbit_area_units", counts.area_units, "area_units");
      metrics.add_count("nets_cut", counts.nets_cut, "count");
    } else {
      Tracer tracer;
      const PassRecord traced = run_pass(*workload, &tracer, &passes.front());
      print_pass("traced pass", traced);
      tally.attempted += traced.tally.attempted;
      tally.failed += traced.tally.failed;
      // The phase-by-phase pass allocates differently from compile(), so
      // only the result counts are compared.
      ExactCounts want = counts;
      want.allocs = traced.counts.allocs;
      repeatable &= same_counts(want, traced.counts, "traced vs untraced pass");
      std::string why;
      if (!workload->same_as_previous(why)) {
        std::cerr << "perfbench: traced phases differ from compile(): " << why << "\n";
        repeatable = false;
      }
      add_layer_metrics(metrics, tracer, *workload, traced.seconds, passes.front().seconds,
                        counts);
      if (!args.trace_file.empty()) {
        std::ofstream out(args.trace_file);
        if (!out) throw std::runtime_error("cannot write trace file " + args.trace_file);
        tracer.write_json(out);
        std::cout << "wrote spans: " << args.trace_file << "\n";
      }
    }

    const bool correct = tally.failed == 0 && repeatable;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
