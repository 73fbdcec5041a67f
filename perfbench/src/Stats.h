//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark's reports. Every function takes
/// its samples by value and sorts its own copy; an empty sample set
/// yields 0.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <vector>

namespace perfbench {

/// The \p P-th percentile (0..100), interpolating linearly between the
/// closest ranks (rank = P/100 * (n-1)).
double percentile(std::vector<double> V, double P);

double median(std::vector<double> V);

/// First quartile, median and third quartile, computed as Python's
/// statistics.quantiles(V, n=4) computes them (the "exclusive" method),
/// so the spread the benchmark prints is the spread its acceptance
/// check computes.
struct Quartiles {
  double Q1 = 0, Q2 = 0, Q3 = 0;
};
Quartiles quartiles(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
