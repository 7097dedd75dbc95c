// Host-speed calibration (perfbench/README.md, "Calibration"). On a
// shared host the same code runs up to half again slower for seconds at
// a time while other tenants load the machine, which no amount of
// repetition averages away. So between cells the benchmark times a fixed
// kernel of its own — table-driven dispatch with loads and stores, like
// a simulator's inner loop, but never the program's code — and scales
// each cell's latency by the kernel's nominal time over its measured
// time around that cell. A change to the program moves the cells and not
// the kernel, so it moves the calibrated times one for one.
#pragma once

#include <cstddef>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The kernel's time at the reference speed the calibrated figures are
/// stated in; on the quiet 4-vCPU Xeon host of the first baseline it
/// takes 0.9-1.1 ms (perfbench/README.md).
inline constexpr double kKernelNominalMs = 1.0;

/// How much more the simulator slows down than the kernel: its cell
/// times go about as the kernel's time to this power. On the baseline
/// host a least-squares fit of log pass wall on log median kernel time
/// within runs gives 1.3 to 1.7 over the four workloads (correlation 0.8
/// to 0.9; noise in the kernel times biases such a fit low), and the
/// run-to-run spread of the calibrated figures is least near 1.7 to 2.
inline constexpr double kElasticity = 1.7;

/// Run the calibration kernel once; host seconds it took.
double time_kernel();

/// The scale that states a pass's host times at the reference speed,
/// from the kernel samples taken during it: (nominal / their median) to
/// the power kElasticity. The median over the whole pass, not the
/// samples nearest a cell, because a single 1 ms sample is too noisy
/// for the power to be applied to it.
double calibration_scale(const std::vector<double>& kernel_ms);

/// Calibration samples of one lane of a pass (see PassStats), taken at
/// cell boundaries no more often than every kSampleEveryMs. Not
/// thread-safe: one per lane.
class Calibrator {
public:
    static constexpr double kSampleEveryMs = 25.0;

    /// Mark the end of a cell; time the kernel if kSampleEveryMs have
    /// passed since the last sample.
    void cell_done();
    /// Take a closing sample if a cell ended after the last one, or if
    /// none was taken.
    void close();
    /// Every sample taken, in ms.
    const std::vector<double>& samples_ms() const { return samples_ms_; }
    /// Host seconds spent in the kernel (inside the pass wall, outside
    /// every cell).
    double kernel_s() const { return kernel_s_; }

private:
    void sample();

    std::vector<double> samples_ms_;
    Clock::time_point last_ = Clock::now();
    bool pending_ = false;
    double kernel_s_ = 0.0;
};

} // namespace perfbench
