//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary's modes (see main.cpp for the command lines).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MODES_H
#define PERFBENCH_MODES_H

#include "Inputs.h"

namespace perfbench {

/// The ground-truth pass: writes Config::RefPath.
int truthMain(const Config &C);
/// One measured run with tracing off: the end-to-end metrics.
int measureMain(const Config &C);
/// The traced run: the per-layer metrics and a Chrome trace.
int traceMain(const Config &C);

} // namespace perfbench

#endif // PERFBENCH_MODES_H
