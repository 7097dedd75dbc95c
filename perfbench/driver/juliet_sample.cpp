// juliet_sample: a seeded one-in-seven sample of the 8,366 Juliet bad
// cases under gcc/asan/sbcets/hwst128_tchk, run through
// juliet::run_case in 128-case Engine::map chunks like fig6_coverage.
// Runs of about a thousand instructions, so IR build, compile, Machine
// construction and per-run tier fixed costs dominate; the few livelocked
// cases that exhaust their fuel hold most of the simulated instructions,
// so this is where setup reuse, tier choice and livelock detection show.
//
// The sample is drawn within each variant class (CWE x distance x
// provenance x container x access), so every class keeps its suite
// share whatever the seed. Which cases livelock is a function of the
// class, so every seed samples the same number of them and the pass's
// cost does not swing with the draw.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <tuple>

#include "exec/engine.hpp"
#include "juliet/runner.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using namespace hwst;
using compiler::Scheme;
using TrapKind = ::hwst::hwst::TrapKind;

constexpr std::array kSchemes = {Scheme::Gcc, Scheme::Asan, Scheme::Sbcets,
                                 Scheme::Hwst128Tchk};
/// Fig. 6 overall coverage (%) the paper reports, in kSchemes order.
constexpr std::array kPaperFig6 = {11.20, 58.08, 64.49, 63.63};
constexpr std::size_t kSampleDivisor = 7;
constexpr std::size_t kChunk = 128;
constexpr std::size_t kInterpSample = 32;
/// run_case's fuel: the Juliet harness timeout.
constexpr u64 kFuel = 2'000'000;

void juliet_fuel(sim::MachineConfig& cfg) { cfg.fuel = kFuel; }

class JulietSample final : public Workload {
public:
    explicit JulietSample(const WorkloadArgs& args) : args_{args} {}

    void setup() override
    {
        const std::vector<juliet::CaseSpec> all = juliet::all_bad_cases();
        std::map<std::tuple<juliet::Cwe, juliet::Distance, juliet::Provenance,
                            juliet::Container, juliet::AccessKind>,
                 std::vector<std::size_t>>
            classes;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const juliet::CaseSpec& c = all[i];
            classes[{c.cwe, c.distance, c.provenance, c.container, c.access}]
                .push_back(i);
        }
        std::vector<std::size_t> sample;
        u64 salt = 0;
        for (const auto& [cls, members] : classes) {
            const auto pick = permutation(
                members.size(), exec::derive_seed(args_.seed, 3, salt++));
            const auto take = static_cast<std::size_t>(std::lround(
                static_cast<double>(members.size()) / kSampleDivisor));
            for (std::size_t k = 0; k < take; ++k)
                sample.push_back(members[pick[k]]);
        }
        std::sort(sample.begin(), sample.end());
        cases_.clear();
        for (const std::size_t i : sample) cases_.push_back(all[i]);
        const std::size_t n = kSchemes.size() * cases_.size();
        traps_.assign(n, TrapKind::None);
        cell_s_.assign(n, 0.0);
    }

    PassStats run_pass(Tracer* tracer, Ledger& ledger) override
    {
        const std::size_t per_scheme = (cases_.size() + kChunk - 1) / kChunk;
        const std::function<int(std::size_t, const exec::JobContext&)> chunk =
            [&](std::size_t ci, const exec::JobContext& ctx) {
                Scope job{tracer, "bench", "job"};
                const Scheme scheme = kSchemes[ci / per_scheme];
                const std::size_t lo = (ci % per_scheme) * kChunk;
                const std::size_t hi = std::min(lo + kChunk, cases_.size());
                for (std::size_t k = lo; k < hi; ++k) {
                    if (ctx.token.expired())
                        throw exec::JobTimeout{"juliet chunk cancelled"};
                    const std::size_t cell =
                        (ci / per_scheme) * cases_.size() + k;
                    traps_[cell] = time_cell(&cell_s_[cell], cal_, [&] {
                        return tracer ? replay_result(spec(scheme, cases_[k]),
                                                      tracer, &ledger, nullptr)
                                            .trap.kind
                                      : juliet::run_case(scheme, cases_[k]);
                    });
                }
                return 0;
            };

        PassStats st;
        cal_ = Calibrator{};
        std::vector<int> unused;
        const auto t0 = Clock::now();
        std::vector<exec::JobOutcome> outcomes;
        {
            Scope map{tracer, "exec", "Engine::map"};
            outcomes = engine_.map<int>(kSchemes.size() * per_scheme, chunk,
                                        unused);
        }
        st.wall_s = seconds_since(t0);

        for (const exec::JobOutcome& o : outcomes) {
            ledger.add("exec.jobs", 1);
            ledger.add("exec.retried", o.attempts > 1 ? o.attempts - 1 : 0);
            if (o.status != exec::JobStatus::Ok) st.failed += kChunk;
        }
        add_lane(st, cell_s_, cal_);
        st.attempted = cell_s_.size();
        if (!tracer) last_traps_ = traps_;
        return st;
    }

    void verify(Report& report) override
    {
        report.check(last_traps_.size() == traps_.size(),
                     "juliet_sample: no complete untraced pass");
        if (last_traps_.size() != traps_.size()) return;

        // Reference replay of every cell through the decomposed call
        // sequence: it must end in the same trap as run_case, and it
        // supplies the simulated counts run_case does not return.
        Ledger sim;
        std::vector<sim::RunResult> ref(traps_.size());
        double detected = 0, err = 0;
        for (std::size_t si = 0; si < kSchemes.size(); ++si) {
            double scheme_detected = 0;
            for (std::size_t k = 0; k < cases_.size(); ++k) {
                const std::size_t cell = si * cases_.size() + k;
                ref[cell] = replay_result(spec(kSchemes[si], cases_[k]),
                                          nullptr, &sim, nullptr);
                report.check(ref[cell].trap.kind == last_traps_[cell],
                             "run_case trap differs from replay: " +
                                 cases_[k].id() + " under " +
                                 std::string{compiler::scheme_name(
                                     kSchemes[si])});
                if (juliet::counts_as_detection(kSchemes[si],
                                                last_traps_[cell]))
                    ++scheme_detected;
            }
            detected += scheme_detected;
            err += std::abs(100.0 * scheme_detected /
                                static_cast<double>(cases_.size()) -
                            kPaperFig6[si]);
        }
        set_sim_fences(report, sim, detected, err / kSchemes.size());
        report.instret_per_pass = sim.get("instret");

        const auto pick =
            permutation(ref.size(), exec::derive_seed(args_.seed, 4));
        for (std::size_t k = 0; k < kInterpSample; ++k) {
            const std::size_t cell = pick[k];
            const Scheme scheme = kSchemes[cell / cases_.size()];
            ReplaySpec s = spec(scheme, cases_[cell % cases_.size()]);
            s.tweak = [](sim::MachineConfig& cfg) {
                juliet_fuel(cfg);
                pin_interp(cfg);
            };
            report.check(
                same_result(replay_result(s, nullptr, nullptr, nullptr),
                            ref[cell]),
                "interp re-run differs: " +
                    cases_[cell % cases_.size()].id());
        }
    }

private:
    static ReplaySpec spec(Scheme scheme, const juliet::CaseSpec& c)
    {
        return ReplaySpec{"juliet", "juliet::build_case",
                          [c] { return juliet::build_case(c); }, scheme,
                          juliet_fuel};
    }

    WorkloadArgs args_;
    exec::Engine engine_{exec::EngineOptions{.jobs = 1}};
    std::vector<juliet::CaseSpec> cases_;
    std::vector<TrapKind> traps_;
    std::vector<TrapKind> last_traps_;
    std::vector<double> cell_s_;
    Calibrator cal_;
};

} // namespace

std::unique_ptr<Workload> make_juliet_sample(const WorkloadArgs& args)
{
    return std::make_unique<JulietSample>(args);
}

} // namespace perfbench
