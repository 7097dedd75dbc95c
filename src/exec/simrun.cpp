#include "exec/simrun.hpp"

namespace hwst::exec {

sim::RunResult run_machine(sim::Machine& machine, const CancelToken& token,
                           u64 pause_at)
{
    auto result = machine.run_cancellable(
        [&token] { return token.expired(); }, kCancelCheckStride, pause_at);
    if (!result) {
        throw JobTimeout{"cancelled after " +
                         std::to_string(machine.instret()) +
                         " instructions"};
    }
    return *result;
}

sim::RunResult run_program(const riscv::Program& program,
                           const sim::MachineConfig& cfg,
                           const CancelToken& token)
{
    sim::Machine machine{program, cfg};
    return run_machine(machine, token);
}

Job make_sim_job(std::string name, std::string workload,
                 compiler::Scheme scheme,
                 std::function<mir::Module()> build,
                 std::function<void(sim::MachineConfig&)> tweak, u64 seed)
{
    Job job;
    job.name = std::move(name);
    job.workload = std::move(workload);
    job.scheme = compiler::scheme_name(scheme);
    job.seed = seed;
    job.key = job.name;
    job.body = [scheme, build = std::move(build),
                tweak = std::move(tweak)](const JobContext& ctx) {
        // Codegen holds a reference to the module during compile; keep
        // it alive for the whole body.
        const mir::Module module = build();
        compiler::CompiledProgram cp = compiler::compile(module, scheme);
        if (tweak) tweak(cp.machine_config);
        return run_program(cp.program, cp.machine_config, ctx.token);
    };
    return job;
}

} // namespace hwst::exec
