#include "inputs.h"

#include <stdexcept>

#include "circuits/registry.h"
#include "netlist/bench_io.h"

namespace perfbench {

BenchInput make_input(std::string_view name, std::uint64_t seed) {
  const merced::BenchmarkEntry* entry = merced::find_benchmark(name);
  if (entry == nullptr) {
    throw std::invalid_argument("perfbench: unknown circuit '" + std::string(name) + "'");
  }
  if (entry->embedded) {
    return {std::string(name), merced::write_bench(merced::load_benchmark(name))};
  }
  merced::SyntheticSpec spec = entry->spec;
  spec.seed = merced::derive_seed(spec.seed, seed);
  return {std::string(name), merced::write_bench(merced::generate_circuit(spec))};
}

std::vector<BenchInput> make_inputs(const std::vector<std::string_view>& names,
                                    std::uint64_t seed) {
  std::vector<BenchInput> out;
  out.reserve(names.size());
  for (std::string_view name : names) out.push_back(make_input(name, seed));
  return out;
}

}  // namespace perfbench
