#include "fault/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "common/table.hpp"
#include "compiler/driver.hpp"
#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/shutdown.hpp"
#include "workloads/workload.hpp"

namespace hwst::fault {

std::vector<Probe> all_probes()
{
    std::vector<Probe> ps;
    ps.reserve(sim::kNumProbes);
    for (unsigned i = 0; i < sim::kNumProbes; ++i)
        ps.push_back(static_cast<Probe>(i));
    return ps;
}

u64 CampaignReport::total_runs() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.runs;
    return n;
}

u64 CampaignReport::total_silent() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.silent;
    return n;
}

u64 CampaignReport::total_timeouts() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.timeouts;
    return n;
}

u64 CampaignReport::total_quarantined() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.quarantined;
    return n;
}

u64 CampaignReport::total_skipped() const
{
    u64 n = 0;
    for (const PointStats& p : points) n += p.skipped;
    return n;
}

u64 CampaignReport::protected_silent() const
{
    u64 n = 0;
    for (const PointStats& p : points)
        if (metadata_protected(p.point)) n += p.silent;
    return n;
}

namespace {

/// Deterministic per-run seed: a SplitMix64-style mix of the campaign
/// seed with the (workload, point, seed) coordinates, so adding a
/// workload or point never shifts another run's fault draw, and thread
/// count never matters.
u64 run_seed(u64 base, u64 workload_i, Probe point, u64 seed_i)
{
    return exec::derive_seed(base, workload_i, static_cast<u64>(point),
                             seed_i);
}

/// Per-workload golden state shared read-only by every faulted run of
/// that workload. The module outlives the program: Codegen may keep
/// references into it.
struct Golden {
    mir::Module module;
    compiler::CompiledProgram cp;
    sim::RunResult run;
    sim::MachineConfig faulted_cfg;
};

/// One faulted run's contribution, merged into PointStats in grid
/// order.
struct RunRecord {
    bool timed_out = false;
    bool fired = false;
    Verdict verdict = Verdict::Masked;
    bool has_latency = false;
    double latency = 0.0;
};

/// Journal round trip for a RunRecord, so --resume replays classified
/// runs instead of re-simulating them.
exec::json::Value record_to_json(const RunRecord& r)
{
    exec::json::Value v = exec::json::Value::object();
    v["t"] = r.timed_out;
    v["f"] = r.fired;
    v["v"] = static_cast<common::i64>(r.verdict);
    v["hl"] = r.has_latency;
    v["l"] = r.latency;
    return v;
}

RunRecord record_from_json(const exec::json::Value& v)
{
    RunRecord r;
    r.timed_out = v.at("t").as_bool();
    r.fired = v.at("f").as_bool();
    const common::i64 verdict = v.at("v").as_int();
    if (verdict < 0 ||
        verdict > static_cast<common::i64>(Verdict::SilentCorruption))
        throw exec::json::JsonError{"bad verdict"};
    r.verdict = static_cast<Verdict>(verdict);
    r.has_latency = v.at("hl").as_bool();
    r.latency = v.at("l").as_double();
    return r;
}

/// Everything that shapes the run grid or its outcomes, hashed into the
/// journal fingerprint so --resume refuses a journal from a different
/// campaign.
std::string campaign_desc(const CampaignConfig& cfg)
{
    std::string d = "fault_campaign scheme=";
    d += compiler::scheme_name(cfg.scheme);
    d += " mode=";
    d += fault_mode_name(cfg.mode);
    d += " seeds=" + std::to_string(cfg.seeds_per_point);
    d += " seed=" + std::to_string(cfg.base_seed);
    d += " timeout=" + std::to_string(cfg.timeout_ms);
    d += " workloads=";
    for (const auto& w : cfg.workloads) { d += w; d += ','; }
    d += " points=";
    for (const Probe p : cfg.points) {
        d += sim::probe_name(p);
        d += ',';
    }
    return d;
}

} // namespace

u64 campaign_fingerprint(const CampaignConfig& cfg)
{
    return exec::grid_fingerprint(campaign_desc(cfg));
}

CampaignReport run_campaign(const CampaignConfig& cfg)
{
    CampaignReport report;
    report.config = cfg;
    report.points.resize(cfg.points.size());
    for (std::size_t i = 0; i < cfg.points.size(); ++i)
        report.points[i].point = cfg.points[i];

    // The journal holds classified faulted runs only. Goldens are
    // deliberately keyless (cheap, and a compiled program does not
    // round-trip through JSON), so they re-run on every resume.
    std::unique_ptr<exec::Journal> journal;
    if (cfg.journal || cfg.resume) {
        const std::string path = cfg.journal_path.empty()
                                     ? exec::journal_path("fault_campaign")
                                     : cfg.journal_path;
        journal = std::make_unique<exec::Journal>(
            path, "fault_campaign", campaign_fingerprint(cfg),
            cfg.resume);
    }

    const exec::Engine engine{exec::EngineOptions{
        .jobs = cfg.jobs,
        .timeout = std::chrono::milliseconds{cfg.timeout_ms},
        .retries = cfg.retries,
        .backoff = std::chrono::milliseconds{cfg.backoff_ms},
        .journal = journal.get(),
        .cache = cfg.cache,
        .isolate = cfg.isolate,
        .rlimit_mb = cfg.rlimit_mb,
        .rlimit_cpu_s = cfg.rlimit_cpu_s,
        .sentinel = cfg.sentinel,
    }};

    // Phase 1: compile + golden run, one job per workload. Goldens are
    // never allowed to time out — a campaign without its reference runs
    // is meaningless — so a timeout here is an error.
    std::vector<std::shared_ptr<Golden>> goldens;
    {
        const auto outcomes = engine.map<std::shared_ptr<Golden>>(
            cfg.workloads.size(),
            [&](std::size_t wi, const exec::JobContext&) {
                auto g = std::make_shared<Golden>();
                const auto& wl = workloads::workload(cfg.workloads[wi]);
                g->module = wl.build();
                g->cp = compiler::compile(g->module, cfg.scheme);
                sim::Machine machine{g->cp.program, g->cp.machine_config};
                g->run = machine.run();
                if (g->run.trap.kind != hwst::TrapKind::None)
                    throw common::ToolchainError{
                        "golden run of " + cfg.workloads[wi] +
                        " trapped: " +
                        std::string{trap_name(g->run.trap.kind)}};
                // Stuck-at faults can turn a loop bound into a
                // near-infinite trip count; bound faulted runs well past
                // the golden length so a genuine hang classifies as such
                // without burning the default 400M-instruction fuel.
                g->faulted_cfg = g->cp.machine_config;
                g->faulted_cfg.fuel = g->run.instret * 4 + 100'000;
                return g;
            },
            goldens);
        for (std::size_t wi = 0; wi < outcomes.size(); ++wi) {
            if (outcomes[wi].status != exec::JobStatus::Ok)
                throw common::ToolchainError{
                    "golden run of " + cfg.workloads[wi] + " failed: " +
                    outcomes[wi].error};
        }
    }

    // Phase 2: the (workload × point × seed) grid, one faulted run per
    // job. All faults are drawn up front, so each (workload, point)
    // group's jobs can fork their fault-free prefixes from one cursor
    // that only moves forward (docs/fault_injection.md "How a faulted
    // run executes"). Jobs keep their grid index (and journal key);
    // only the dispatch order changes, below.
    const std::size_t n_points = cfg.points.size();
    const std::size_t n_seeds = cfg.seeds_per_point;
    const std::size_t n_groups = cfg.workloads.size() * n_points;
    const std::size_t n_runs = n_groups * n_seeds;
    std::vector<FaultSpec> specs;
    specs.reserve(n_runs);
    for (std::size_t i = 0; i < n_runs; ++i) {
        const std::size_t wi = i / (n_points * n_seeds);
        const Probe point = cfg.points[(i / n_seeds) % n_points];
        common::Xoshiro256 rng{
            run_seed(cfg.base_seed, wi, point, i % n_seeds)};
        specs.push_back(FaultPlan::random_spec(
            point, goldens[wi]->run.instret, rng, cfg.mode));
    }
    // Dispatch order: each group's runs in trigger order, the groups in
    // waves of one per worker with their runs interleaved, so workers
    // advance different cursors side by side and about one cursor per
    // worker is live (one at --jobs 1).
    std::vector<std::size_t> by_trigger(n_runs);
    std::iota(by_trigger.begin(), by_trigger.end(), std::size_t{0});
    for (std::size_t gi = 0; gi < n_groups; ++gi) {
        const auto first = by_trigger.begin() +
                           static_cast<std::ptrdiff_t>(gi * n_seeds);
        std::stable_sort(first, first + static_cast<std::ptrdiff_t>(n_seeds),
                         [&](std::size_t a, std::size_t b) {
                             return specs[a].trigger_instret <
                                    specs[b].trigger_instret;
                         });
    }
    const std::size_t wave =
        std::min<std::size_t>(exec::resolve_jobs(cfg.jobs), n_groups);
    std::vector<std::size_t> order;
    order.reserve(n_runs);
    for (std::size_t g0 = 0; g0 < n_groups; g0 += wave) {
        const std::size_t width = std::min(wave, n_groups - g0);
        for (std::size_t r = 0; r < n_seeds; ++r)
            for (std::size_t gi = g0; gi < g0 + width; ++gi)
                order.push_back(by_trigger[gi * n_seeds + r]);
    }

    // One cursor per group, freed once each of its runs has forked; a
    // run that forks again (a retry) may rebuild it.
    struct Group {
        std::optional<PrefixCursor> cursor;
        std::atomic<std::size_t> unforked{0};
    };
    std::vector<Group> groups(n_groups);
    std::vector<std::atomic<bool>> forked(n_runs);
    for (std::size_t gi = 0; gi < n_groups; ++gi) {
        const Golden& g = *goldens[gi / n_points];
        groups[gi].cursor.emplace(g.cp.program, g.faulted_cfg);
        groups[gi].unforked = n_seeds;
    }

    const exec::MapCodec<RunRecord> codec{
        .label = "run",
        .encode = record_to_json,
        .decode = record_from_json,
    };
    std::vector<RunRecord> records;
    const auto outcomes = engine.map<RunRecord>(
        n_runs,
        [&](std::size_t i, const exec::JobContext& ctx) {
            const Golden& g = *goldens[i / (n_points * n_seeds)];
            Injector injector{FaultPlan{{specs[i]}}};

            RunRecord rec;
            std::optional<sim::RunResult> faulted;
            try {
                Group& group = groups[i / n_seeds];
                const auto machine = group.cursor->fork_at(
                    injector.first_trigger() - 1, ctx.token);
                if (!forked[i].exchange(true)) --group.unforked;
                if (group.unforked == 0) group.cursor->drop();
                faulted = run_armed(*machine, injector, ctx.token);
            } catch (const exec::JobTimeout&) {
                // A shutdown expires the same token as a wall-clock
                // timeout. Only the latter is a classification; a
                // cancelled run must rethrow so the engine skips it
                // (unjournaled) and --resume re-runs it.
                if (exec::shutdown_requested()) throw;
                rec.timed_out = true;
                return rec;
            }
            const Outcome outcome = classify(g.run, *faulted, injector);
            rec.fired = outcome.fired;
            rec.verdict = outcome.verdict;
            if (outcome.verdict == Verdict::Detected && outcome.fired) {
                rec.has_latency = true;
                rec.latency =
                    static_cast<double>(outcome.detection_latency());
            }
            return rec;
        },
        records, codec, order);

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status == exec::JobStatus::Error)
            throw common::ToolchainError{"campaign run #" +
                                         std::to_string(i) +
                                         " failed: " + outcomes[i].error};
    }

    // Merge in (workload, point, seed) order — the serial loop order.
    for (std::size_t wi = 0; wi < cfg.workloads.size(); ++wi) {
        for (std::size_t pi = 0; pi < n_points; ++pi) {
            PointStats& stats = report.points[pi];
            for (std::size_t si = 0; si < n_seeds; ++si) {
                const std::size_t i = (wi * n_points + pi) * n_seeds + si;
                const RunRecord& rec = records[i];
                ++stats.runs;
                if (outcomes[i].status == exec::JobStatus::Skipped) {
                    ++stats.skipped;
                    continue;
                }
                // A worker crash with retries=0 lands as Crashed; with
                // a retry budget, exhaustion lands as Quarantined.
                // Either way the run is contained, counted, and never
                // classified — crash containment is the whole point of
                // --isolate.
                if (outcomes[i].status == exec::JobStatus::Quarantined ||
                    outcomes[i].status == exec::JobStatus::Crashed) {
                    ++stats.quarantined;
                    continue;
                }
                if (rec.timed_out ||
                    outcomes[i].status == exec::JobStatus::Timeout) {
                    ++stats.timeouts;
                    continue;
                }
                if (rec.fired) ++stats.fired;
                switch (rec.verdict) {
                case Verdict::Detected:
                    ++stats.detected;
                    if (rec.has_latency)
                        stats.latencies.push_back(rec.latency);
                    break;
                case Verdict::Masked: ++stats.masked; break;
                case Verdict::SilentCorruption: ++stats.silent; break;
                }
            }
        }
    }
    return report;
}

void CampaignReport::print(std::ostream& os) const
{
    os << "fault campaign: scheme=" << compiler::scheme_name(config.scheme)
       << " mode=" << fault_mode_name(config.mode)
       << " seeds/point=" << config.seeds_per_point
       << " seed=" << config.base_seed << "\nworkloads:";
    for (const auto& w : config.workloads) os << ' ' << w;
    os << "\n\n";

    common::TextTable table{{"point", "runs", "fired", "detected", "masked",
                             "silent", "det-rate", "mean-latency"}};
    for (const PointStats& p : points) {
        table.add_row({std::string{sim::probe_name(p.point)},
                       std::to_string(p.runs), std::to_string(p.fired),
                       std::to_string(p.detected), std::to_string(p.masked),
                       std::to_string(p.silent),
                       common::fmt(100.0 * p.detection_rate(), 1) + "%",
                       common::fmt(p.mean_latency(), 1)});
    }
    table.print(os);
    os << "\ntotal runs " << total_runs() << ", silent corruptions "
       << total_silent() << " (" << protected_silent()
       << " at metadata-protected points)\n";
    if (total_timeouts())
        os << "warning: " << total_timeouts()
           << " runs hit the wall-clock budget and were not classified\n";
    if (total_quarantined())
        os << "warning: " << total_quarantined()
           << " runs exhausted the retry budget (quarantined, not "
              "classified)\n";
    if (total_skipped())
        os << "warning: " << total_skipped()
           << " runs were skipped by a graceful shutdown — the report is "
              "partial, finish it with --resume\n";
}

exec::json::Value CampaignReport::to_json() const
{
    using exec::json::Value;
    Value root = Value::object();
    Value jcfg = Value::object();
    jcfg["scheme"] = compiler::scheme_name(config.scheme);
    jcfg["mode"] = fault_mode_name(config.mode);
    jcfg["seeds_per_point"] = config.seeds_per_point;
    jcfg["base_seed"] = config.base_seed;
    Value jwl = Value::array();
    for (const auto& w : config.workloads) jwl.push_back(w);
    jcfg["workloads"] = jwl;
    jcfg["timeout_ms"] = config.timeout_ms;
    root["config"] = jcfg;

    Value jpoints = Value::array();
    for (const PointStats& p : points) {
        Value jp = Value::object();
        jp["point"] = sim::probe_name(p.point);
        jp["metadata_protected"] = metadata_protected(p.point);
        jp["runs"] = p.runs;
        jp["fired"] = p.fired;
        jp["detected"] = p.detected;
        jp["masked"] = p.masked;
        jp["silent"] = p.silent;
        jp["timeouts"] = p.timeouts;
        jp["quarantined"] = p.quarantined;
        jp["skipped"] = p.skipped;
        jp["detection_rate"] = p.detection_rate();
        jp["mean_latency"] = p.mean_latency();
        jpoints.push_back(jp);
    }
    root["points"] = jpoints;
    root["total_runs"] = total_runs();
    root["total_silent"] = total_silent();
    root["protected_silent"] = protected_silent();
    root["total_timeouts"] = total_timeouts();
    root["total_quarantined"] = total_quarantined();
    root["total_skipped"] = total_skipped();
    root["partial"] = total_skipped() != 0;
    return root;
}

} // namespace hwst::fault
