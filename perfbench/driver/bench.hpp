// Shared pieces of the benchmark driver: the workload interface the
// timing loop in main.cpp drives, the per-pass result, the ledger of
// per-layer counts, and the correctness report (perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/job.hpp"
#include "sim/machine.hpp"
#include "calibrate.hpp"
#include "trace.hpp"

namespace perfbench {

using hwst::common::u64;

/// One timed pass over a workload's cells.
struct PassStats {
    double wall_s = 0.0;
    /// Latency of each cell the user waits on, in the same order on every
    /// pass.
    std::vector<double> cell_ms;
    /// The cells ran in lanes side by side (closed-loop clients), not all
    /// one after another (one engine worker).
    bool side_by_side = false;
    /// Host seconds inside wall_s that the busiest lane spent in the
    /// calibration kernel.
    double kernel_s = 0.0;
    /// Every calibration sample of the pass, in ms.
    std::vector<double> kernel_ms;
    u64 attempted = 0;
    u64 failed = 0; ///< non-Ok status or failed per-cell check
};

/// num / den, or 0 when nothing was counted.
inline double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Named per-layer counts accumulated over the traced passes. Fractions
/// are formed in main.cpp from their numerator and denominator counts.
struct Ledger {
    std::map<std::string, double> counts;

    void add(const std::string& name, double v) { counts[name] += v; }
    double get(const std::string& name) const
    {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    }
    /// Simulated observables of one finished run.
    void add_result(const hwst::sim::RunResult& r);
    /// Host-side tier counters of one Machine after its run.
    void add_machine(const hwst::sim::Machine& m);
};

/// Outcome of the untimed correctness checks, plus the exact simulated
/// fences that must not move under a host-speed change.
struct Report {
    u64 checks = 0;
    u64 failures = 0;
    std::vector<std::string> messages;
    std::map<std::string, double> fences;
    /// Simulated instructions one pass delivers (fixed for a seed).
    double instret_per_pass = 0.0;

    /// Record one check; a false `ok` is a failure with `what` as reason.
    void check(bool ok, const std::string& what);
};

/// Set the exact simulated fences every workload reports from one
/// pass's results (zero where a quantity does not apply).
void set_sim_fences(Report& report, const Ledger& sim,
                    double juliet_detected, double paper_err_pp);

/// Bit-identity of two runs: equal journal serializations, which carry
/// every simulated counter a harness reads.
bool same_result(const hwst::sim::RunResult& a,
                 const hwst::sim::RunResult& b);

/// Time one cell: run `body`, store its host seconds in *out_s, then
/// mark the cell's end on `cal`.
template <typename F>
auto time_cell(double* out_s, Calibrator& cal, F&& body)
{
    const auto t0 = Clock::now();
    auto r = body();
    *out_s = seconds_since(t0);
    cal.cell_done();
    return r;
}

/// `job` with its body timed as one cell into *out_s.
hwst::exec::Job timed_job(hwst::exec::Job job, double* out_s,
                          Calibrator* cal);

/// Close `cal` and append one lane of cells (host seconds, in order) and
/// its calibration samples to `st`.
void add_lane(PassStats& st, const std::vector<double>& cell_s,
              Calibrator& cal);

class Workload {
public:
    virtual ~Workload() = default;
    /// Enumerate the inputs (grids, cases, server + connections). The
    /// driver times this repeatedly for setup_s, so it must leave the
    /// workload ready for run_pass and be callable again.
    virtual void setup() = 0;
    /// Untimed, right after every setup(): make the first round trips
    /// that set-up leaves to first use (the served clients' connections),
    /// so no pass pays for them.
    virtual void settle() {}
    /// Release what setup() acquired; untimed.
    virtual void teardown() {}
    /// One pass over every cell. With a tracer, the pass replays each
    /// cell as the decomposed public call sequence under spans and adds
    /// per-layer counts to `ledger`.
    virtual PassStats run_pass(Tracer* tracer, Ledger& ledger) = 0;
    /// Untimed checks against the last untraced pass; fills the fences.
    virtual void verify(Report& report) = 0;
};

struct WorkloadArgs {
    u64 seed = 1;
    /// Self-test: corrupt one expected value so verification must fail.
    bool corrupt_expected = false;
};

std::unique_ptr<Workload> make_perf_grid(const WorkloadArgs& args);
std::unique_ptr<Workload> make_juliet_sample(const WorkloadArgs& args);
std::unique_ptr<Workload> make_fault_sweep(const WorkloadArgs& args);
std::unique_ptr<Workload> make_served_campaign(const WorkloadArgs& args);

/// A seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, u64 seed);

/// Directory for run outputs (trace files, result records,
/// server sockets and caches), created on first use.
std::string out_dir();

} // namespace perfbench
