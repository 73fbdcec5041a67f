//===----------------------------------------------------------------------===//
///
/// \file
/// The host-speed calibration behind the measured run's CPU-bound times.
/// A shared host's speed swings by a fifth or more within seconds, for
/// every process on it alike, so the measured run times a fixed kernel
/// of the benchmark's own right after every measured block (a suite pass
/// or a corpus batch) and can express a time at the reference speed:
/// scaled by ReferenceKernelMicros over the kernel time measured around
/// it. Measure.cpp says which times it scales.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

namespace perfbench {

/// The kernel's time at the reference speed, in microseconds.
constexpr double ReferenceKernelMicros = 1000;

/// Runs the calibration kernel once, single-threaded, and returns its
/// wall time in microseconds. Work of the kinds the certifier does
/// (string keys in ordered maps, a sort, small vectors in hash maps), no
/// program code, and no allocation from the program's heap, so no change
/// to the program can move it.
double timeCalibrationKernel();

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
