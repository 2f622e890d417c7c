// The (algorithm, nodes, ppn, bytes) grid of the per-collective
// correctness sweeps, minus the cases whose world size the algorithm
// cannot run at: every instantiated case executes, none skips.
#pragma once

#include <initializer_list>
#include <tuple>
#include <vector>

#include "coll/collective.hpp"

namespace pml::coll {

using SweepCase = std::tuple<Algorithm, int /*nodes*/, int /*ppn*/, int /*bytes*/>;

inline std::vector<SweepCase> supported_sweep(
    std::initializer_list<Algorithm> algorithms,
    std::initializer_list<int> nodes, std::initializer_list<int> ppns,
    std::initializer_list<int> bytes) {
  std::vector<SweepCase> cases;
  for (const Algorithm a : algorithms) {
    for (const int n : nodes) {
      for (const int p : ppns) {
        if (!algorithm_supports(a, n * p)) continue;
        for (const int b : bytes) cases.emplace_back(a, n, p, b);
      }
    }
  }
  return cases;
}

}  // namespace pml::coll
