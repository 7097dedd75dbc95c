// fault_sweep: fault::run_campaign on hwst128_tchk over crc32 and
// treeadd, all eight probe points, one worker, base_seed drawn from the
// workload seed. One cell is one campaign call for one (workload, probe)
// pair, 20 seeded faults each. The probe hook forces the interpreter, so
// this measures step() and the fault layer; it is the control for tier
// changes (which should leave it unmoved) and the workload where golden-
// run snapshot/clone would show.
//
// The traced pass and the reference check replay each call through the
// fault layer's public pieces (golden build/compile/run, FaultPlan draw,
// Injector, Machine, classify) with the campaign's own seed rule, and the
// replayed statistics must equal the campaign's report.
#include "common/prng.hpp"
#include "exec/engine.hpp"
#include "exec/simrun.hpp"
#include "fault/campaign.hpp"
#include "replay.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hwst;

/// What one replayed campaign call produces.
struct Replica {
    fault::PointStats stats;
    Ledger sim;
    sim::RunResult golden;
    sim::RunResult golden_interp; ///< filled by the reference check only
};

/// Replay one single-workload, single-point campaign call.
Replica replay_campaign(const fault::CampaignConfig& cfg, Tracer* tracer,
                        bool with_interp_golden)
{
    Scope call{tracer, "fault", "campaign call replay"};
    const exec::Engine engine{exec::EngineOptions{.jobs = 1}};
    const workloads::Workload& wl = workloads::workload(cfg.workloads[0]);
    const sim::Probe point = cfg.points[0];

    Replica rep;
    rep.stats.point = point;
    Replayed golden;
    std::vector<int> unused;
    {
        Scope map{tracer, "exec", "Engine::map"};
        engine.map<int>(
            1,
            [&](std::size_t, const exec::JobContext&) {
                Scope job{tracer, "fault", "golden"};
                replay_cell(golden,
                            ReplaySpec{"workloads", "Workload::build",
                                       wl.build, cfg.scheme, {}},
                            tracer, &rep.sim, nullptr);
                return 0;
            },
            unused);
    }
    rep.golden = golden.result;
    if (with_interp_golden) {
        sim::MachineConfig icfg = golden.cp.machine_config;
        pin_interp(icfg);
        rep.golden_interp = sim::Machine{golden.cp.program, icfg}.run();
    }
    sim::MachineConfig faulted_cfg = golden.cp.machine_config;
    faulted_cfg.fuel = golden.result.instret * 4 + 100'000;

    std::vector<fault::Outcome> outcomes;
    {
        Scope map{tracer, "exec", "Engine::map"};
        engine.map<fault::Outcome>(
            cfg.seeds_per_point,
            [&](std::size_t si, const exec::JobContext& ctx) {
                Scope job{tracer, "fault", "faulted run"};
                common::Xoshiro256 rng{exec::derive_seed(
                    cfg.base_seed, 0, static_cast<u64>(point), si)};
                fault::Injector injector{
                    fault::FaultPlan{{fault::FaultPlan::random_spec(
                        point, golden.result.instret, rng, cfg.mode)}}};
                std::optional<sim::Machine> m;
                {
                    Scope s{tracer, "sim", "sim::Machine"};
                    m.emplace(golden.cp.program, faulted_cfg);
                }
                injector.attach(*m);
                sim::RunResult r;
                {
                    Scope s{tracer, "sim", "exec::run_machine"};
                    r = exec::run_machine(*m, ctx.token);
                }
                rep.sim.add_result(r);
                rep.sim.add_machine(*m);
                return fault::classify(golden.result, r, injector);
            },
            outcomes);
    }
    for (const fault::Outcome& o : outcomes) {
        fault::PointStats& s = rep.stats;
        ++s.runs;
        if (o.fired) ++s.fired;
        switch (o.verdict) {
        case fault::Verdict::Detected:
            ++s.detected;
            if (o.fired)
                s.latencies.push_back(
                    static_cast<double>(o.detection_latency()));
            break;
        case fault::Verdict::Masked: ++s.masked; break;
        case fault::Verdict::SilentCorruption: ++s.silent; break;
        }
    }
    return rep;
}

bool same_stats(const fault::PointStats& a, const fault::PointStats& b)
{
    return a.point == b.point && a.runs == b.runs && a.fired == b.fired &&
           a.detected == b.detected && a.masked == b.masked &&
           a.silent == b.silent && a.timeouts == b.timeouts &&
           a.quarantined == b.quarantined && a.skipped == b.skipped &&
           a.latencies == b.latencies;
}

class FaultSweep final : public Workload {
public:
    explicit FaultSweep(const WorkloadArgs& args) : args_{args} {}

    void setup() override
    {
        calls_.clear();
        for (const char* w : {"crc32", "treeadd"}) {
            for (const sim::Probe p : fault::all_probes()) {
                fault::CampaignConfig cfg;
                cfg.workloads = {w};
                cfg.points = {p};
                cfg.base_seed = exec::derive_seed(args_.seed, 5);
                cfg.jobs = 1;
                calls_.push_back(std::move(cfg));
            }
        }
    }

    PassStats run_pass(Tracer* tracer, Ledger& ledger) override
    {
        PassStats st;
        std::vector<fault::PointStats> stats;
        std::vector<double> cells(calls_.size());
        Calibrator cal;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            const fault::CampaignConfig& cfg = calls_[i];
            stats.push_back(time_cell(&cells[i], cal, [&] {
                if (!tracer) return fault::run_campaign(cfg).points.at(0);
                Replica rep = replay_campaign(cfg, tracer, false);
                for (const auto& [k, v] : rep.sim.counts) ledger.add(k, v);
                ledger.add("exec.jobs", 1.0 + cfg.seeds_per_point);
                return rep.stats;
            }));
        }
        st.wall_s = seconds_since(t0);
        add_lane(st, cells, cal);

        for (const fault::PointStats& s : stats) {
            st.attempted += s.runs;
            const bool protected_point = fault::metadata_protected(s.point);
            st.failed += s.timeouts + s.quarantined + s.skipped +
                         (protected_point ? s.silent : 0);
            ledger.add("fault.runs", static_cast<double>(s.runs));
            ledger.add("fault.fired", static_cast<double>(s.fired));
            ledger.add("fault.detected", static_cast<double>(s.detected));
            if (protected_point)
                ledger.add("fault.protected_silent",
                           static_cast<double>(s.silent));
        }
        if (!tracer) last_ = std::move(stats);
        return st;
    }

    void verify(Report& report) override
    {
        report.check(last_.size() == calls_.size(),
                     "fault_sweep: no complete untraced pass");
        if (last_.size() != calls_.size()) return;

        Ledger sim;
        for (std::size_t i = 0; i < calls_.size(); ++i) {
            const fault::CampaignConfig& cfg = calls_[i];
            const std::string name =
                cfg.workloads[0] + "/" +
                std::string{sim::probe_name(cfg.points[0])};
            report.check(!fault::metadata_protected(last_[i].point) ||
                             last_[i].silent == 0,
                         "protected_silent != 0 at " + name);
            Replica rep = replay_campaign(cfg, nullptr, true);
            report.check(same_stats(rep.stats, last_[i]),
                         "campaign report differs from replay: " + name);
            report.check(same_result(rep.golden, rep.golden_interp),
                         "interp golden differs: " + name);
            for (const auto& [k, v] : rep.sim.counts) sim.add(k, v);
        }
        set_sim_fences(report, sim, 0, 0);
        report.instret_per_pass = sim.get("instret");
    }

private:
    WorkloadArgs args_;
    std::vector<fault::CampaignConfig> calls_;
    std::vector<fault::PointStats> last_;
};

} // namespace

std::unique_ptr<Workload> make_fault_sweep(const WorkloadArgs& args)
{
    return std::make_unique<FaultSweep>(args);
}

} // namespace perfbench
