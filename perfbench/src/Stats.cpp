#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = std::clamp(P, 0.0, 100.0) / 100.0 * (V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Rank));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - Lo);
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

Quartiles perfbench::quartiles(std::vector<double> V) {
  Quartiles Q;
  if (V.empty())
    return Q;
  if (V.size() == 1) {
    Q.Q1 = Q.Q2 = Q.Q3 = V[0];
    return Q;
  }
  std::sort(V.begin(), V.end());
  const long N = static_cast<long>(V.size());
  const long M = N + 1;
  double Out[3];
  for (long I = 1; I <= 3; ++I) {
    long J = std::clamp(I * M / 4, 1L, N - 1);
    const long Delta = I * M - J * 4;
    Out[I - 1] = (V[J - 1] * (4 - Delta) + V[J] * Delta) / 4;
  }
  Q.Q1 = Out[0];
  Q.Q2 = Out[1];
  Q.Q3 = Out[2];
  return Q;
}
