// The decomposed public call sequence behind exec::make_sim_job and
// juliet::run_case — IR build -> compiler::compile -> sim::Machine ->
// run — with a span around each call. Traced passes and the untimed
// reference runs go through it; timed untraced passes never do.
#pragma once

#include <functional>
#include <optional>

#include "bench.hpp"
#include "compiler/driver.hpp"

namespace perfbench {

struct Replayed {
    hwst::mir::Module module; ///< outlives `cp`: codegen may refer to it
    hwst::compiler::CompiledProgram cp;
    hwst::sim::RunResult result;
};

struct ReplaySpec {
    const char* build_layer; ///< "workloads" or "juliet"
    const char* build_name;  ///< the public build call, for the trace
    std::function<hwst::mir::Module()> build;
    hwst::compiler::Scheme scheme;
    std::function<void(hwst::sim::MachineConfig&)> tweak;
};

/// Build, compile, construct and run one cell. With a token the run goes
/// through exec::run_machine (make_sim_job's path), else Machine::run
/// (run_case's path). Adds the run's counts to `ledger` when non-null.
void replay_cell(Replayed& out, const ReplaySpec& spec, Tracer* tracer,
                 Ledger* ledger, const hwst::exec::CancelToken* token);

/// replay_cell, returning only the simulated result.
hwst::sim::RunResult replay_result(const ReplaySpec& spec, Tracer* tracer,
                                   Ledger* ledger,
                                   const hwst::exec::CancelToken* token);

/// Pin a machine config to the reference interpreter.
void pin_interp(hwst::sim::MachineConfig& cfg);

} // namespace perfbench
