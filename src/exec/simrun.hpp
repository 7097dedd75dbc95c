// Cancellable Machine execution: the engine's bridge into src/sim. A
// job must be able to give up when its wall-clock budget expires, but
// sim::Machine::run() runs to completion — so run_machine steps the
// machine in chunks and polls the CancelToken between them, throwing
// JobTimeout when it expires (graceful: the Machine is simply dropped,
// nothing blocks). The chunked loop reproduces Machine::run() exactly —
// same fuel rule, same trap handling — so results are bit-identical to
// an uncancelled run.
#pragma once

#include "compiler/driver.hpp"
#include "exec/job.hpp"

namespace hwst::exec {

/// Instructions executed between CancelToken polls. Small enough that a
/// timeout is honoured within microseconds, large enough that the poll
/// is invisible next to the per-instruction simulation cost.
inline constexpr u64 kCancelCheckStride = 4096;

/// Run `machine` to completion or until `token` expires (JobTimeout).
/// With `pause_at`, return early once instret reaches it, the machine
/// still running (sim::Machine::run_cancellable).
sim::RunResult run_machine(sim::Machine& machine, const CancelToken& token,
                           u64 pause_at = sim::kNoPause);

/// Construct a Machine for the compiled program and run it cancellably.
sim::RunResult run_program(const riscv::Program& program,
                           const sim::MachineConfig& cfg,
                           const CancelToken& token);

/// The standard campaign job: compile `build()` under `scheme`, apply
/// the machine-config `tweak`, run cancellably. Everything happens
/// inside the body, on the worker thread, so jobs never share mutable
/// state. The job's journal `key` defaults to its name, so sim jobs
/// participate in --journal / --resume checkpointing out of the box.
Job make_sim_job(std::string name, std::string workload,
                 compiler::Scheme scheme,
                 std::function<mir::Module()> build,
                 std::function<void(sim::MachineConfig&)> tweak = {},
                 u64 seed = 0);

} // namespace hwst::exec
