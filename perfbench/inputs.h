// Seeded workload inputs: ISCAS89-suite circuits as `.bench` text.
//
// Seed 0 reproduces the registry circuits exactly. Any other seed gives
// every synthetic circuit the generator seed derive_seed(spec.seed, seed):
// a new netlist with the same Table 9 statistics. s27 is embedded and stays
// the same for every seed. The program under test only ever sees the text.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct BenchInput {
  std::string name;  ///< registry name, e.g. "s13207"
  std::string text;  ///< .bench netlist
};

/// `.bench` text of registry circuit `name` under workload seed `seed`.
/// Throws std::invalid_argument for an unknown name.
BenchInput make_input(std::string_view name, std::uint64_t seed);

std::vector<BenchInput> make_inputs(const std::vector<std::string_view>& names,
                                    std::uint64_t seed);

}  // namespace perfbench
