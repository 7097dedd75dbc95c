#include "fault/injector.hpp"

#include <algorithm>

#include "common/error.hpp"
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
    // The fault-free prefix, unhooked. step() counts an instruction
    // before executing it, so the first trigger - 1 instructions would
    // all probe with instret < trigger: nothing can fire.
    const u64 trigger = injector.first_trigger();
    const sim::RunResult prefix =
        exec::run_machine(machine, token, trigger ? trigger - 1 : 0);
    if (!machine.running()) return prefix;
    return run_armed(machine, injector, token);
}

sim::RunResult run_armed(sim::Machine& m, Injector& injector,
                         const exec::CancelToken& token)
{
    if (!m.running())
        throw common::SimError{"run_armed: the machine has stopped"};
    // The armed window, hooked, which pins it to the interpreter: one
    // cancellation stride at a time until every fault has fired.
    sim::RunResult result;
    injector.attach(m);
    while (m.running() && !injector.spent())
        result = exec::run_machine(m, token,
                                   m.instret() + exec::kCancelCheckStride);
    // The rest, unhooked again: a spent plan perturbs nothing.
    m.set_probe_hook(nullptr);
    if (m.running()) result = exec::run_machine(m, token);
    return result;
}

namespace {

/// Run the fault-free `m` on to instret `at`, paused there.
void advance(sim::Machine& m, u64 at, const exec::CancelToken& token)
{
    exec::run_machine(m, token, at);
    if (!m.running())
        throw common::ToolchainError{"fault-free run ended at instret " +
                                     std::to_string(m.instret()) +
                                     ", before " + std::to_string(at)};
}

} // namespace

PrefixCursor::PrefixCursor(const riscv::Program& program,
                           sim::MachineConfig cfg)
    : program_{program}, cfg_{cfg}
{}

std::unique_ptr<sim::Machine> PrefixCursor::fork_at(
    u64 at, const exec::CancelToken& token)
{
    std::unique_lock lock{mu_};
    const auto ticket = waiting_.insert(at);
    const auto passed = [&] { return machine_ && at_ > at; };
    turn_.wait(lock, [&] {
        return passed() || (!busy_ && *waiting_.begin() == at);
    });
    waiting_.erase(ticket);
    if (passed()) {
        ++private_;
        lock.unlock();
        turn_.notify_all(); // a later request may be first in line now
        auto m = std::make_unique<sim::Machine>(program_, cfg_);
        advance(*m, at, token);
        return m;
    }
    if (!machine_) {
        machine_ = std::make_unique<sim::Machine>(program_, cfg_);
        ++builds_;
    }
    busy_ = true;
    at_ = at;
    lock.unlock();

    std::unique_ptr<sim::Machine> fork;
    try {
        advance(*machine_, at, token);
        fork = machine_->fork();
    } catch (const exec::JobTimeout&) {
        // A cancelled run pauses at a stride boundary and resumes from
        // there bit-identically: keep the cursor for the next request.
        lock.lock();
        at_ = machine_->instret();
        busy_ = false;
        lock.unlock();
        turn_.notify_all();
        throw;
    } catch (...) {
        lock.lock();
        machine_.reset();
        busy_ = false;
        lock.unlock();
        turn_.notify_all();
        throw;
    }
    lock.lock();
    busy_ = false;
    lock.unlock();
    turn_.notify_all();
    return fork;
}

void PrefixCursor::drop()
{
    std::unique_lock lock{mu_};
    turn_.wait(lock, [&] { return !busy_; });
    machine_.reset();
}

bool PrefixCursor::live() const
{
    const std::lock_guard lock{mu_};
    return machine_ != nullptr;
}

u64 PrefixCursor::builds() const
{
    const std::lock_guard lock{mu_};
    return builds_;
}

u64 PrefixCursor::private_prefixes() const
{
    const std::lock_guard lock{mu_};
    return private_;
}

} // namespace hwst::fault
