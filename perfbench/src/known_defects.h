// Measures the known defects the benchmark records as they stand (see
// perfbench/README.md), on the inputs the workloads build from `seed`.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

// Prints one line per defect and returns 0.
int print_known_defects(std::uint64_t seed, std::size_t workers);

}  // namespace perfbench
