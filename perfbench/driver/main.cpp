// perfbench: the repository's end-to-end benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// One process runs one workload: timed passes over the workload's
// cells, each after a burst of timed set-ups, until S seconds are used,
// then untimed correctness checks. Host times are calibrated to a
// reference speed (calibrate.hpp). --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced passes, prints the
// per-layer metrics and writes a trace-event file. The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Exit status
// is 0 only when every output checked correct.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/stats.hpp"
#include "compiler/driver.hpp"
#include "exec/envelope.hpp"
#include "exec/journal.hpp"
#include "exec/json.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace perfbench;
using hwst::exec::json::Value;

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool self_test = false;
};

Options parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.self_test = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + a};
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
            if (!(o.seconds > 0)) throw std::invalid_argument{"--seconds must be > 0"};
        } else if (a == "--trace") {
            if (v != "0" && v != "1") throw std::invalid_argument{"--trace takes 0 or 1"};
            o.trace = v == "1";
        } else {
            throw std::invalid_argument{"unknown flag " + a};
        }
    }
    if (o.workload.empty() && !o.self_test)
        throw std::invalid_argument{"--workload is required"};
    return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadArgs& args)
{
    if (name == "perf_grid") return make_perf_grid(args);
    if (name == "juliet_sample") return make_juliet_sample(args);
    if (name == "fault_sweep") return make_fault_sweep(args);
    if (name == "served_campaign") return make_served_campaign(args);
    throw std::invalid_argument{"unknown workload " + name};
}

double median(const std::vector<double>& xs)
{
    return hwst::common::percentile(xs, 50.0);
}

/// The highest percentile (in tenths, at most 99.9) with at least ten
/// samples beyond it; the slowest when there are fewer than twenty.
double tail_percentile(std::size_t n)
{
    if (n < 20) return 100.0;
    const double p = std::floor(1000.0 * (1.0 - 10.0 / static_cast<double>(n))) / 10.0;
    return std::min(p, 99.9);
}

std::string cpu_model()
{
    std::ifstream is{"/proc/cpuinfo"};
    for (std::string line; std::getline(is, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/// FNV-1a over every file under src/, so results from different sources
/// are never compared silently even outside a git checkout.
std::string source_digest()
{
    namespace fs = std::filesystem;
    if (!fs::is_directory("src")) return "unknown";
    std::vector<fs::path> files;
    for (const auto& e : fs::recursive_directory_iterator("src"))
        if (e.is_regular_file()) files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::string all;
    for (const auto& f : files) {
        std::ifstream is{f, std::ios::binary};
        std::ostringstream ss;
        ss << is.rdbuf();
        all += f.generic_string();
        all += '\0';
        all += ss.str();
    }
    return hwst::exec::hash_hex(hwst::exec::fnv1a(all));
}

/// The tier ExecTier::Auto resolves to here (after HWST_TIER).
std::string auto_tier()
{
    const hwst::mir::Module m = hwst::workloads::workload("crc32").build();
    const auto cp = hwst::compiler::compile(m, hwst::compiler::Scheme::None);
    return std::string{hwst::sim::tier_name(
        hwst::sim::Machine{cp.program, cp.machine_config}.tier())};
}

Value host_fingerprint()
{
    Value v = Value::object();
    v["cpu_model"] = cpu_model();
    v["nproc"] = std::thread::hardware_concurrency();
    v["build_type"] = PERFBENCH_BUILD_TYPE;
    v["git_rev"] = hwst::exec::build_git_rev();
    v["source_digest"] = source_digest();
    v["auto_tier"] = auto_tier();
    const char* pinned = std::getenv("HWST_TIER");
    v["HWST_TIER"] = pinned ? pinned : "";
    return v;
}

/// Peak resident set of this process image. VmHWM, not getrusage: after
/// exec, ru_maxrss still carries the launching process's peak.
double peak_rss_mb()
{
    std::ifstream is{"/proc/self/status"};
    for (std::string line; std::getline(is, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// Each cell's latency calibrated to the reference speed (calibrate.hpp).
std::vector<double> calibrated_ms(const PassStats& p)
{
    const double scale = calibration_scale(p.kernel_ms);
    std::vector<double> x;
    for (const double ms : p.cell_ms) x.push_back(ms * scale);
    return x;
}

struct Phase {
    std::vector<PassStats> passes;
    std::vector<double> walls() const
    {
        std::vector<double> w;
        for (const auto& p : passes) w.push_back(p.wall_s);
        return w;
    }
    bool side_by_side() const { return passes.front().side_by_side; }
    /// Passes whose cells line up with the first one's; a pass cut short
    /// by a failure does not.
    std::vector<const PassStats*> complete() const
    {
        std::vector<const PassStats*> c;
        for (const PassStats& p : passes)
            if (p.cell_ms.size() == passes.front().cell_ms.size())
                c.push_back(&p);
        return c;
    }
    /// Each cell's calibrated latencies, one per complete pass.
    std::vector<std::vector<double>> by_cell() const
    {
        std::vector<std::vector<double>> cells(passes.front().cell_ms.size());
        for (const PassStats* p : complete()) {
            const std::vector<double> x = calibrated_ms(*p);
            for (std::size_t i = 0; i < x.size(); ++i) cells[i].push_back(x[i]);
        }
        return cells;
    }
    /// Every calibrated cell latency of the run, all passes pooled.
    std::vector<double> pooled_ms() const
    {
        std::vector<double> all;
        for (const PassStats* p : complete()) {
            const std::vector<double> x = calibrated_ms(*p);
            all.insert(all.end(), x.begin(), x.end());
        }
        return all;
    }
    /// One pass's wall at the reference speed. With one lane: every cell
    /// at the median of its calibrated latencies, plus the least
    /// calibrated time a pass spent outside its cells and the kernel
    /// (engine, queue). With lanes side by side the cells overlap and no
    /// sum of them is the wall: each pass's wall less its kernel time,
    /// calibrated, median over the passes.
    double wall() const
    {
        std::vector<double> w;
        if (side_by_side()) {
            for (const PassStats* p : complete())
                w.push_back((p->wall_s - p->kernel_s) *
                            calibration_scale(p->kernel_ms));
            return median(w);
        }
        for (const PassStats* p : complete()) {
            double cells_s = 0;
            for (const double ms : p->cell_ms) cells_s += ms / 1e3;
            w.push_back(std::max(0.0, p->wall_s - p->kernel_s - cells_s) *
                        calibration_scale(p->kernel_ms));
        }
        double est_s = *std::min_element(w.begin(), w.end());
        for (const auto& xs : by_cell()) est_s += median(xs) / 1e3;
        return est_s;
    }
    /// The median cell latency: of all calibrated latencies pooled, or,
    /// with lanes side by side, over each cell's fastest. There two
    /// thirds of the cells are cache-read round trips of about 0.3 ms
    /// spent mostly waiting for thread wake-ups, which a busy host only
    /// ever delays and the kernel does not see: their pooled median
    /// moved 25% between runs of the same code, their floor 5%.
    double p50_ms() const
    {
        if (!side_by_side()) return median(pooled_ms());
        std::vector<double> floors;
        for (const auto& xs : by_cell())
            floors.push_back(*std::min_element(xs.begin(), xs.end()));
        return median(floors);
    }
};

/// A burst of back-to-back set-ups, each timed and calibrated into
/// `samples`: at least three and 50 ms worth. The last one stays in
/// effect for the next pass.
void setup_burst(Workload& w, std::vector<double>& samples)
{
    Calibrator cal;
    std::vector<double> burst;
    const auto b0 = Clock::now();
    for (int n = 0; n < 3 || (seconds_since(b0) < 0.05 && n < 1000); ++n) {
        w.teardown();
        time_cell(&burst.emplace_back(), cal, [&] {
            w.setup();
            return 0;
        });
        w.settle();
    }
    cal.close();
    const double scale = calibration_scale(cal.samples_ms());
    for (const double s : burst) samples.push_back(s * scale);
}

/// Passes until `budget` seconds are used: a new round starts while at
/// least half a median-length round is left, so the run ends within half
/// a round of the budget. Every pass is preceded by a
/// set-up burst, so setup_s samples the whole run like the passes do.
/// With a tracer each round is an untraced then a traced pass, so host
/// drift affects both alike.
void run_passes(Workload& w, Tracer* tracer, Ledger& ledger, double budget,
                std::vector<double>& setups, Phase& untraced, Phase& traced)
{
    Ledger untraced_ledger;
    const auto t0 = Clock::now();
    std::vector<double> rounds;
    do {
        const auto r0 = Clock::now();
        setup_burst(w, setups);
        untraced.passes.push_back(w.run_pass(nullptr, untraced_ledger));
        if (tracer) {
            setup_burst(w, setups);
            traced.passes.push_back(w.run_pass(tracer, ledger));
        }
        rounds.push_back(seconds_since(r0));
    } while (seconds_since(t0) + median(rounds) / 2 <= budget);
    w.teardown();
}

Value metric(double value, const char* unit)
{
    Value m = Value::object();
    m["value"] = value;
    m["unit"] = unit;
    return m;
}

Value per_layer_metrics(const Tracer& tracer, const Ledger& ledger,
                        const Phase& traced, const Phase& untraced,
                        const Report& report)
{
    const double n = static_cast<double>(traced.passes.size());
    auto total = tracer.total_seconds();
    auto self = tracer.self_seconds();
    const auto per = [&](const char* k) { return ledger.get(k) / n; };
    double traced_wall = 0;
    for (const auto& p : traced.passes) traced_wall += p.wall_s;
    const double run_s =
        (total["exec::run_machine"] + total["Machine::run"]) / n;

    Value m = Value::object();
    m["sim.run_s"] = metric(run_s, "s");
    m["sim.run_mips"] = metric(frac(per("instret"), run_s) / 1e6, "MIPS");
    m["sim.setup_s"] = metric(total["sim::Machine"] / n, "s");
    m["compiler.compile_s"] = metric(total["compiler::compile"] / n, "s");
    m["ir.build_s"] = metric(
        (total["Workload::build"] + total["juliet::build_case"]) / n, "s");
    m["exec.overhead_s"] = metric(self["exec"] / n, "s");
    m["sim.dbt.chained_frac"] = metric(
        frac(ledger.get("dbt.chained"), ledger.get("dbt.block_execs")),
        "frac");
    m["sim.jalr_hit_frac"] = metric(
        frac(ledger.get("jalr.hits"),
             ledger.get("jalr.hits") + ledger.get("jalr.misses")),
        "frac");
    m["sim.jit.translated"] = metric(per("jit.translated"), "count");
    m["sim.jit.bailouts"] = metric(per("jit.bailouts"), "count");
    m["sim.runs_interp"] = metric(per("runs_interp"), "count");
    m["sim.runs_dbt"] = metric(per("runs_dbt"), "count");
    m["sim.runs_jit"] = metric(per("runs_jit"), "count");
    m["sim.fuel_exhausted"] = metric(per("fuel_exhausted"), "count");
    m["sim.fuel_instret_frac"] = metric(
        frac(ledger.get("fuel_instret"), ledger.get("instret")), "frac");
    m["fault.self_frac"] = metric(frac(self["fault"], traced_wall), "frac");
    m["fault.runs"] = metric(per("fault.runs"), "count");
    m["fault.fired_frac"] = metric(
        frac(ledger.get("fault.fired"), ledger.get("fault.runs")), "frac");
    m["fault.detected"] = metric(per("fault.detected"), "count");
    m["fault.protected_silent"] =
        metric(per("fault.protected_silent"), "count");
    m["exec.jobs"] = metric(per("exec.jobs"), "count");
    m["exec.retried"] = metric(per("exec.retried"), "count");
    m["serve.submit_frac"] = metric(
        frac(total["ResilientClient::submit"],
             total["ResilientClient::submit"] +
                 total["ResilientClient::wait"]),
        "frac");
    m["serve.cache_hit_frac"] = metric(
        frac(ledger.get("serve.cells_cached"), ledger.get("serve.cells")),
        "frac");
    m["serve.cells_run"] = metric(per("serve.cells_run"), "count");
    m["serve.cells_cached"] = metric(per("serve.cells_cached"), "count");
    m["serve.overloaded"] = metric(per("serve.overloaded"), "count");
    m["serve.reconnects"] = metric(per("serve.reconnects"), "count");
    for (const auto& [name, value] : report.fences)
        m[name] = metric(value, name.ends_with("_frac") ? "frac"
                                : name == "compiler.text_bytes" ? "bytes"
                                : name == "paper.err_pp"       ? "pp"
                                                                : "count");
    m["trace.overhead_frac"] =
        metric(traced.wall() / untraced.wall() - 1.0, "frac");
    return m;
}

int run(const Options& o)
{
    const Value host = host_fingerprint();
    WorkloadArgs args{.seed = o.seed, .corrupt_expected = o.self_test};
    const std::string name = o.self_test ? "perf_grid" : o.workload;
    auto w = make_workload(name, args);

    std::vector<double> setups;
    Ledger ledger;
    Tracer tracer;
    Phase untraced, traced;
    run_passes(*w, o.trace ? &tracer : nullptr, ledger,
               o.self_test ? 0 : o.seconds, setups, untraced, traced);

    Report report;
    w->verify(report);

    u64 attempted = report.checks, failed = report.failures;
    for (const Phase* ph : {&untraced, &traced}) {
        for (const PassStats& p : ph->passes) {
            attempted += p.attempted;
            failed += p.failed;
        }
    }
    const std::vector<double> cells = untraced.pooled_ms();
    const double wall_s = untraced.wall();
    const double tail_p = tail_percentile(cells.size());

    Value metrics = Value::object();
    if (o.trace) {
        metrics = per_layer_metrics(tracer, ledger, traced, untraced, report);
    } else {
        metrics["wall_s"] = metric(wall_s, "s");
        metrics["setup_s"] = metric(median(setups), "s");
        metrics["host_mips"] = metric(
            report.instret_per_pass / wall_s / 1e6, "MIPS");
        metrics["cell_p50_ms"] = metric(untraced.p50_ms(), "ms");
        metrics["cell_tail_ms"] = metric(
            hwst::common::percentile(cells, tail_p), "ms");
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB");
    }

    // Everything else about the run goes to a record file and one
    // human-readable stdout line; the result object comes last.
    Value detail = Value::object();
    detail["workload"] = name;
    detail["seed"] = o.seed;
    detail["host"] = host;
    detail["setup_samples"] = setups.size();
    Value setup_q = Value::object();
    for (const double q : {10.0, 50.0, 90.0})
        setup_q["p" + std::to_string(static_cast<int>(q))] =
            hwst::common::percentile(setups, q);
    detail["setup_s_percentiles"] = setup_q;
    Value walls = Value::array();
    for (const double v : untraced.walls()) walls.push_back(v);
    detail["pass_walls_s"] = walls;
    Value kernel = Value::array();
    for (const auto& p : untraced.passes)
        kernel.push_back(median(p.kernel_ms));
    detail["pass_kernel_ms"] = kernel;
    detail["traced_passes"] = traced.passes.size();
    detail["latency_samples"] = cells.size();
    detail["cell_tail_percentile"] = tail_p;
    Value fences = Value::object();
    for (const auto& [k, v] : report.fences) fences[k] = v;
    detail["fences"] = fences;
    Value msgs = Value::array();
    for (const auto& m : report.messages) msgs.push_back(m);
    detail["check_failures"] = msgs;
    if (o.trace) {
        Value self = Value::object();
        for (const auto& [layer, s] : tracer.self_seconds())
            self[layer] = s / static_cast<double>(traced.passes.size());
        detail["layer_self_s_per_pass"] = self;
        const std::string trace_path = out_dir() + "/" + name + "-seed" +
                                       std::to_string(o.seed) +
                                       ".trace.json";
        tracer.write_trace_events(trace_path);
        detail["trace_file"] = trace_path;
        detail["spans"] = tracer.span_count();
    }

    Value result = Value::object();
    result["correct"] = failed == 0;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = metrics;

    Value record = Value::object();
    record["detail"] = detail;
    record["result"] = result;
    std::ofstream{out_dir() + "/" + name + "-seed" + std::to_string(o.seed) +
                  "-trace" + (o.trace ? "1" : "0") + ".json"}
        << record.dump(2) << '\n';

    for (const auto& m : report.messages) std::cerr << "check failed: " << m << '\n';
    if (o.self_test) {
        const bool caught = failed != 0;
        std::cout << (caught ? "self-test ok: the corrupted expected value "
                               "was caught\n"
                             : "self-test FAILED: the corrupted expected "
                               "value was not caught\n");
        return caught ? 0 : 1;
    }
    std::cout << "perfbench: " << detail.dump(-1) << '\n';
    std::cout << result.dump(-1) << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 2;
    }
}
