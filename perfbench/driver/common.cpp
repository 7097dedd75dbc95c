#include <algorithm>
#include <filesystem>
#include <numeric>

#include "bench.hpp"
#include "common/prng.hpp"
#include "exec/journal.hpp"
#include "exec/simrun.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace hwst;

void Ledger::add_result(const sim::RunResult& r)
{
    add("runs", 1);
    add("instret", static_cast<double>(r.instret));
    add("cycles", static_cast<double>(r.cycles));
    add("dcache.accesses", static_cast<double>(r.dcache.accesses));
    add("dcache.misses", static_cast<double>(r.dcache.misses));
    add("icache.accesses", static_cast<double>(r.icache.accesses));
    add("icache.misses", static_cast<double>(r.icache.misses));
    add("keybuffer.lookups", static_cast<double>(r.keybuffer.lookups));
    add("keybuffer.hits", static_cast<double>(r.keybuffer.hits));
    if (r.trap.kind == ::hwst::hwst::TrapKind::FuelExhausted) {
        add("fuel_exhausted", 1);
        add("fuel_instret", static_cast<double>(r.instret));
    }
}

void Ledger::add_machine(const sim::Machine& m)
{
    const sim::DbtStats& d = m.dbt_stats();
    // Hooks (the fault injector's probe) and the sentinel pin a run to
    // the interpreter whatever tier the Machine resolved to.
    const bool interp = d.fallback_runs || d.sentinel_degraded ||
                        m.tier() == sim::ExecTier::Interp;
    add(interp ? "runs_interp"
               : (m.tier() == sim::ExecTier::Jit ? "runs_jit" : "runs_dbt"),
        1);
    add("dbt.block_execs", static_cast<double>(d.block_execs));
    add("dbt.chained", static_cast<double>(d.chained));
    add("jalr.hits", static_cast<double>(d.jalr_hits));
    add("jalr.misses", static_cast<double>(d.jalr_misses));
    add("jit.translated", static_cast<double>(m.jit_stats().translated));
    add("jit.bailouts", static_cast<double>(m.jit_stats().bailouts));
}

void Report::check(bool ok, const std::string& what)
{
    ++checks;
    if (ok) return;
    ++failures;
    if (messages.size() < 20) messages.push_back(what);
}

void set_sim_fences(Report& report, const Ledger& sim,
                    double juliet_detected, double paper_err_pp)
{
    auto& f = report.fences;
    f["sim.instret"] = sim.get("instret");
    f["sim.cycles"] = sim.get("cycles");
    f["compiler.text_bytes"] = sim.get("text_bytes");
    f["mem.dcache_hit_frac"] =
        1.0 - frac(sim.get("dcache.misses"), sim.get("dcache.accesses"));
    f["mem.icache_hit_frac"] =
        1.0 - frac(sim.get("icache.misses"), sim.get("icache.accesses"));
    f["metadata.keybuffer_hit_frac"] =
        frac(sim.get("keybuffer.hits"), sim.get("keybuffer.lookups"));
    f["juliet.detected"] = juliet_detected;
    f["paper.err_pp"] = paper_err_pp;
}

bool same_result(const sim::RunResult& a, const sim::RunResult& b)
{
    return exec::result_to_json(a).dump() == exec::result_to_json(b).dump();
}

exec::Job timed_job(exec::Job job, double* out_s, Calibrator* cal)
{
    job.body = [body = std::move(job.body), out_s,
                cal](const exec::JobContext& ctx) {
        return time_cell(out_s, *cal, [&] { return body(ctx); });
    };
    return job;
}

void add_lane(PassStats& st, const std::vector<double>& cell_s,
              Calibrator& cal)
{
    cal.close();
    for (const double s : cell_s) st.cell_ms.push_back(s * 1e3);
    st.kernel_s = std::max(st.kernel_s, cal.kernel_s());
    st.kernel_ms.insert(st.kernel_ms.end(), cal.samples_ms().begin(),
                        cal.samples_ms().end());
}

std::vector<std::size_t> permutation(std::size_t n, u64 seed)
{
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), std::size_t{0});
    common::Xoshiro256 rng{seed};
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

std::string out_dir()
{
    const std::string dir = ".bench_out";
    std::filesystem::create_directories(dir);
    return dir;
}

void replay_cell(Replayed& out, const ReplaySpec& spec, Tracer* tracer,
                 Ledger* ledger, const exec::CancelToken* token)
{
    {
        Scope s{tracer, spec.build_layer, spec.build_name};
        out.module = spec.build();
    }
    {
        Scope s{tracer, "compiler", "compiler::compile"};
        out.cp = compiler::compile(out.module, spec.scheme);
    }
    if (spec.tweak) spec.tweak(out.cp.machine_config);
    std::optional<sim::Machine> machine;
    {
        Scope s{tracer, "sim", "sim::Machine"};
        machine.emplace(out.cp.program, out.cp.machine_config);
    }
    {
        Scope s{tracer, "sim", token ? "exec::run_machine" : "Machine::run"};
        out.result =
            token ? exec::run_machine(*machine, *token) : machine->run();
    }
    if (ledger) {
        ledger->add_result(out.result);
        ledger->add_machine(*machine);
        ledger->add("text_bytes",
                    static_cast<double>(out.cp.program.code().size() * 4));
    }
}

sim::RunResult replay_result(const ReplaySpec& spec, Tracer* tracer,
                             Ledger* ledger, const exec::CancelToken* token)
{
    Replayed r;
    replay_cell(r, spec, tracer, ledger, token);
    return std::move(r.result);
}

void pin_interp(sim::MachineConfig& cfg) { cfg.tier = sim::ExecTier::Interp; }

} // namespace perfbench
