// perf_grid: the Fig. 4 grid (23 workloads x none/sbcets/hwst128/
// hwst128_tchk) plus the Fig. 5 accelerator columns (7 SPEC x bogo/
// wdl_narrow/wdl_wide), 113 cells run through exec::make_sim_job on a
// one-worker Engine, in a seed-permuted order. Long simulations: the
// pass is dominated by Machine::run, so it shows dispatcher, JIT, mem
// and HWST-unit speedups and hides per-run fixed costs.
#include <array>

#include "common/stats.hpp"
#include "exec/engine.hpp"
#include "exec/simrun.hpp"
#include "replay.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hwst;
using compiler::Scheme;

constexpr std::array kFig4Schemes = {Scheme::None, Scheme::Sbcets,
                                     Scheme::Hwst128, Scheme::Hwst128Tchk};
constexpr std::array kFig5Accel = {Scheme::Bogo, Scheme::WdlNarrow,
                                   Scheme::WdlWide};
/// Fig. 4 geo-mean overheads (%) the paper reports for sbcets, hwst128
/// and hwst128_tchk.
constexpr std::array kPaperFig4 = {441.45, 152.91, 94.89};

struct Cell {
    const workloads::Workload* w;
    Scheme scheme;
    common::i64 expected;
    std::string name() const
    {
        return w->name + "/" + std::string{compiler::scheme_name(scheme)};
    }
};

class PerfGrid final : public Workload {
public:
    explicit PerfGrid(const WorkloadArgs& args) : args_{args} {}

    void setup() override
    {
        std::vector<Cell> grid;
        for (const auto& w : workloads::all_workloads()) {
            for (const Scheme s : kFig4Schemes)
                grid.push_back(Cell{&w, s, w.expected});
            if (w.suite == workloads::Suite::Spec)
                for (const Scheme s : kFig5Accel)
                    grid.push_back(Cell{&w, s, w.expected});
        }
        if (args_.corrupt_expected) grid.front().expected += 1;

        cells_.clear();
        for (const std::size_t i :
             permutation(grid.size(), exec::derive_seed(args_.seed, 1)))
            cells_.push_back(grid[i]);
        cell_s_.assign(cells_.size(), 0.0);
        jobs_.clear();
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell& c = cells_[i];
            jobs_.push_back(timed_job(
                exec::make_sim_job(c.name(), c.w->name, c.scheme,
                                   c.w->build),
                &cell_s_[i], &cal_));
        }
    }

    PassStats run_pass(Tracer* tracer, Ledger& ledger) override
    {
        std::vector<exec::Job> traced;
        if (tracer) {
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                const Cell& c = cells_[i];
                exec::Job job;
                job.name = c.name();
                job.body = [this, c, i, tracer,
                            &ledger](const exec::JobContext& ctx) {
                    Scope span{tracer, "bench", "job"};
                    return time_cell(&cell_s_[i], cal_, [&] {
                        return replay_result(
                            ReplaySpec{"workloads", "Workload::build",
                                       c.w->build, c.scheme, {}},
                            tracer, &ledger, &ctx.token);
                    });
                };
                traced.push_back(std::move(job));
            }
        }

        PassStats st;
        cal_ = Calibrator{};
        const auto t0 = Clock::now();
        std::vector<exec::JobOutcome> outcomes;
        {
            Scope run{tracer, "exec", "Engine::run"};
            outcomes = engine_.run(tracer ? traced : jobs_);
        }
        st.wall_s = seconds_since(t0);
        add_lane(st, cell_s_, cal_);

        double instret = 0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const exec::JobOutcome& o = outcomes[i];
            ++st.attempted;
            ledger.add("exec.jobs", 1);
            ledger.add("exec.retried", o.attempts > 1 ? o.attempts - 1 : 0);
            if (o.status != exec::JobStatus::Ok ||
                o.result.exit_code != cells_[i].expected) {
                ++st.failed;
                if (bad_cells_.size() < 5)
                    bad_cells_.push_back(
                        cells_[i].name() + " status " +
                        std::string{exec::job_status_name(o.status)} +
                        " exit " + std::to_string(o.result.exit_code) +
                        " expected " + std::to_string(cells_[i].expected));
            }
            instret += static_cast<double>(o.result.instret);
        }
        if (!tracer) {
            pass_instret_.push_back(instret);
            last_ = std::move(outcomes);
        }
        return st;
    }

    void verify(Report& report) override
    {
        for (const std::string& m : bad_cells_)
            report.messages.push_back("exit code check: " + m);
        report.check(last_.size() == cells_.size(),
                     "perf_grid: no complete untraced pass");
        if (last_.size() != cells_.size()) return;
        for (const double v : pass_instret_)
            report.check(v == pass_instret_.front(),
                         "perf_grid: passes delivered different instret");

        // Fences from the last untraced pass, plus compile-only text
        // sizes (make_sim_job does not hand its program back).
        Ledger sim;
        std::map<std::pair<std::string, Scheme>, double> cycles;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell& c = cells_[i];
            sim.add_result(last_[i].result);
            const mir::Module m = c.w->build();
            sim.add("text_bytes",
                    static_cast<double>(
                        compiler::compile(m, c.scheme).program.code().size() *
                        4));
            cycles[{c.w->name, c.scheme}] =
                static_cast<double>(last_[i].result.cycles);
        }
        double err = 0;
        for (std::size_t k = 1; k < kFig4Schemes.size(); ++k) {
            std::vector<double> oh;
            for (const auto& w : workloads::all_workloads())
                oh.push_back((cycles[{w.name, kFig4Schemes[k]}] /
                                  cycles[{w.name, Scheme::None}] -
                              1.0) *
                             100.0);
            err += std::abs(common::geo_mean_overhead_pct(oh) -
                            kPaperFig4[k - 1]);
        }
        set_sim_fences(report, sim, 0, err / (kFig4Schemes.size() - 1));
        report.instret_per_pass = pass_instret_.front();

        // A seeded sample re-run on the reference interpreter must give
        // bit-identical results.
        const auto pick =
            permutation(cells_.size(), exec::derive_seed(args_.seed, 2));
        for (std::size_t k = 0; k < kInterpSample; ++k) {
            const Cell& c = cells_[pick[k]];
            const exec::Job job = exec::make_sim_job(
                c.name(), c.w->name, c.scheme, c.w->build, pin_interp);
            report.check(same_result(job.body(exec::JobContext{}),
                                     last_[pick[k]].result),
                         "interp re-run differs: " + c.name());
        }
    }

private:
    static constexpr std::size_t kInterpSample = 3;

    WorkloadArgs args_;
    exec::Engine engine_{exec::EngineOptions{.jobs = 1}};
    std::vector<Cell> cells_;
    std::vector<exec::Job> jobs_;
    std::vector<double> cell_s_;
    Calibrator cal_;
    std::vector<exec::JobOutcome> last_;
    std::vector<double> pass_instret_;
    std::vector<std::string> bad_cells_;
};

} // namespace

std::unique_ptr<Workload> make_perf_grid(const WorkloadArgs& args)
{
    return std::make_unique<PerfGrid>(args);
}

} // namespace perfbench
