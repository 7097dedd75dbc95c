#include "fault/injector.hpp"

#include <algorithm>

#include "exec/simrun.hpp"

namespace hwst::fault {

Injector::Injector(FaultPlan plan)
{
    armed_.reserve(plan.faults.size());
    for (const FaultSpec& spec : plan.faults) armed_.push_back(Armed{spec});
}

u64 Injector::perturb(Probe point, u64 instret, u64 value)
{
    for (Armed& a : armed_) {
        if (a.spec.point != point || a.done) continue;
        if (instret < a.spec.trigger_instret) continue;
        value ^= a.spec.xor_mask;
        if (a.spec.mode == FaultMode::OneShot) a.done = true;
        if (fires_ == 0) first_fire_ = instret;
        ++fires_;
        if (log_.size() < kMaxLog) {
            log_.push_back(FireRecord{point, instret,
                                      value ^ a.spec.xor_mask, value});
        }
    }
    return value;
}

u64 Injector::first_trigger() const
{
    u64 t = sim::kNoPause;
    for (const Armed& a : armed_) t = std::min(t, a.spec.trigger_instret);
    return t;
}

bool Injector::spent() const
{
    return std::all_of(armed_.begin(), armed_.end(), [](const Armed& a) {
        return a.done;
    });
}

void Injector::attach(sim::Machine& m)
{
    m.set_probe_hook([this](Probe point, u64 instret, u64 value) {
        return perturb(point, instret, value);
    });
}

sim::RunResult run_faulted(const riscv::Program& program,
                           const sim::MachineConfig& cfg, Injector& injector,
                           const exec::CancelToken& token)
{
    sim::Machine machine{program, cfg};
    // 1. The fault-free prefix, unhooked. step() counts an instruction
    //    before executing it, so the first trigger - 1 instructions
    //    would all probe with instret < trigger: nothing can fire.
    const u64 trigger = injector.first_trigger();
    sim::RunResult result =
        exec::run_machine(machine, token, trigger ? trigger - 1 : 0);
    // 2. The armed window, hooked, which pins it to the interpreter: one
    //    cancellation stride at a time until every fault has fired.
    injector.attach(machine);
    while (machine.running() && !injector.spent())
        result = exec::run_machine(
            machine, token, machine.instret() + exec::kCancelCheckStride);
    // 3. The rest, unhooked again: a spent plan perturbs nothing.
    machine.set_probe_hook(nullptr);
    if (machine.running()) result = exec::run_machine(machine, token);
    return result;
}

} // namespace hwst::fault
