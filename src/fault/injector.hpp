// Injector: executes a FaultPlan against a running Machine through the
// Probe hook. Keeps a capped event log so the oracle can report where
// the fault actually landed (the trigger names an instruction count,
// but the perturbation only happens the next time the datapath is
// exercised).
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
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
/// executes"): the fault-free prefix runs on the Machine's resolved
/// tier, then run_armed() finishes the run. The result is bit-identical
/// to attaching the injector at instret 0 and running the whole program
/// on the interpreter; a prefix that ends the program returns its
/// result.
sim::RunResult run_faulted(const riscv::Program& program,
                           const sim::MachineConfig& cfg, Injector& injector,
                           const exec::CancelToken& token);

/// The armed window and the suffix of a faulted run. `m` must be
/// running and paused at or before `injector.first_trigger() - 1`
/// (run_faulted's prefix or a PrefixCursor fork). The window runs
/// hooked, on the interpreter, until `injector.spent()`; the suffix runs
/// unhooked on the resolved tier.
sim::RunResult run_armed(sim::Machine& m, Injector& injector,
                         const exec::CancelToken& token);

/// The fault-free run of one program that faulted runs fork their
/// prefixes from (docs/fault_injection.md "How a faulted run
/// executes"). fork_at(k) advances one shared cursor Machine, unhooked
/// on the resolved tier, to instret k and returns a Machine::fork() of
/// it, so a series of increasing k costs one fault-free run in total.
/// The cursor only moves forward: a request for an instret it has
/// passed, or is already advancing past, runs its prefix on a fresh
/// private Machine instead, without waiting, so any order of requests
/// gives the same machines. Thread-safe: one request at a time advances
/// the cursor, and waiting requests take their turns smallest instret
/// first.
class PrefixCursor {
public:
    /// `program` must outlive the cursor and every machine it returns.
    PrefixCursor(const riscv::Program& program, sim::MachineConfig cfg);

    /// A Machine paused at instret `at`. Throws common::ToolchainError
    /// if the fault-free run ends before `at`, which drops the cursor,
    /// and exec::JobTimeout when `token` expires. A cancelled advance
    /// keeps the cursor, resumable, where it stopped.
    std::unique_ptr<sim::Machine> fork_at(u64 at,
                                          const exec::CancelToken& token);

    /// Free the cursor Machine once no request is advancing it; the
    /// next fork_at() rebuilds it.
    void drop();
    bool live() const;
    /// Cursor Machines built so far (each one starts at instret 0).
    u64 builds() const;
    /// Requests that found the cursor past their instret and ran their
    /// prefix on a private Machine.
    u64 private_prefixes() const;

private:
    const riscv::Program& program_;
    sim::MachineConfig cfg_;
    mutable std::mutex mu_;
    std::condition_variable turn_;
    /// Replaced only under mu_; run and forked only by the request that
    /// set busy_.
    std::unique_ptr<sim::Machine> machine_;
    /// The instret machine_ is paused at, or is being advanced to while
    /// busy_.
    u64 at_ = 0;
    bool busy_ = false;
    std::multiset<u64> waiting_;
    u64 builds_ = 0;
    u64 private_ = 0;
};

} // namespace hwst::fault
