// Injector: executes a FaultPlan against a running Machine through the
// Probe hook. Keeps a capped event log so the oracle can report where
// the fault actually landed (the trigger names an instruction count,
// but the perturbation only happens the next time the datapath is
// exercised).
#pragma once

#include <vector>

#include "exec/job.hpp"
#include "fault/plan.hpp"

namespace hwst::fault {

/// One perturbation that actually happened.
struct FireRecord {
    Probe point;
    u64 instret;
    u64 before;
    u64 after;
};

class Injector {
public:
    explicit Injector(FaultPlan plan);

    /// The Machine::ProbeHook entry point.
    u64 perturb(Probe point, u64 instret, u64 value);

    /// Install this injector on `m`. The injector must outlive the run.
    void attach(sim::Machine& m);

    /// The earliest trigger of the plan (kNoPause when it is empty):
    /// before it, perturb() returns every value unchanged.
    u64 first_trigger() const;
    /// True when every armed fault is a one-shot that has fired: from
    /// then on perturb() returns every value unchanged. A stuck-at
    /// fault is never spent.
    bool spent() const;

    bool fired() const { return fires_ != 0; }
    u64 fires() const { return fires_; }
    u64 first_fire_instret() const { return first_fire_; }

    /// First kMaxLog perturbations (stuck-at faults can fire millions of
    /// times; the interesting ones are the first).
    const std::vector<FireRecord>& log() const { return log_; }
    static constexpr std::size_t kMaxLog = 64;

private:
    struct Armed {
        FaultSpec spec;
        bool done = false; ///< one-shot faults disarm after firing
    };

    std::vector<Armed> armed_;
    std::vector<FireRecord> log_;
    u64 fires_ = 0;
    u64 first_fire_ = 0;
};

/// One faulted run: `program` under `cfg` with `injector`'s plan
/// applied, cancellable through `token` (exec::JobTimeout). The hook is
/// the identity outside the armed window, so only that window runs on
/// the interpreter (docs/fault_injection.md "How a faulted run
/// executes"): the fault-free prefix and the suffix after every fault
/// is spent run on the Machine's resolved tier. The result is
/// bit-identical to attaching the injector at instret 0 and running
/// the whole program on the interpreter.
sim::RunResult run_faulted(const riscv::Program& program,
                           const sim::MachineConfig& cfg, Injector& injector,
                           const exec::CancelToken& token);

} // namespace hwst::fault
