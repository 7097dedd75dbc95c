#include "exec/report.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace hwst::exec {

std::string bench_json_path(const std::string& bench)
{
    return "BENCH_" + bench + ".json";
}

json::Value bench_envelope(const std::string& bench, unsigned jobs,
                           double wall_ms, const json::Value& payload)
{
    json::Value root = json::Value::object();
    root["schema_version"] = kBenchSchemaVersion;
    root["bench"] = bench;
    root["jobs"] = jobs;
    root["wall_ms"] = wall_ms;
    for (const auto& [key, value] : payload.members()) root[key] = value;
    return root;
}

std::string write_bench_json(const std::string& bench, unsigned jobs,
                             double wall_ms, const json::Value& payload,
                             const std::string& path)
{
    const std::string out_path =
        path.empty() ? bench_json_path(bench) : path;
    std::ofstream out{out_path};
    if (!out)
        throw common::ToolchainError{"cannot open " + out_path +
                                     " for writing"};
    out << bench_envelope(bench, jobs, wall_ms, payload).dump(2);
    if (!out)
        throw common::ToolchainError{"short write to " + out_path};
    return out_path;
}

json::Value read_bench_json(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw common::ToolchainError{"cannot open " + path};
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value root = json::Value::object();
    try {
        root = json::Value::parse(buf.str());
    } catch (const json::JsonError& e) {
        // A truncated or garbage BENCH file must name itself, not just
        // an offset (satellite of the durability layer).
        throw json::JsonError{path + ": " + e.what()};
    }
    if (root.at("schema_version").as_int() != kBenchSchemaVersion)
        throw common::ToolchainError{
            path + ": unsupported schema_version " +
            std::to_string(root.at("schema_version").as_int())};
    return root;
}

json::Value outcome_json(const Job& job, const JobOutcome& outcome)
{
    json::Value row = json::Value::object();
    if (!job.workload.empty()) row["workload"] = job.workload;
    if (!job.scheme.empty()) row["scheme"] = job.scheme;
    row["status"] = job_status_name(outcome.status);
    row["wall_ms"] = outcome.wall_ms;
    if (outcome.status == JobStatus::Ok) {
        const sim::RunResult& r = outcome.result;
        row["exit_code"] = r.exit_code;
        row["trap"] = trap_name(r.trap.kind);
        row["cycles"] = r.cycles;
        row["instret"] = r.instret;
    } else {
        row["error"] = outcome.error;
    }
    return row;
}

bool is_host_field(std::string_view key)
{
    // wall_ms/run_ms/mips/geo_mean_mips: host timing. git_rev/jobs:
    // provenance. tier/dbt/jit: the execution-tier choice
    // and the tiers' host-side counters — interp/dbt/jit envelopes must
    // compare equal once stripped (a tier may change host speed, never
    // simulated numbers). cache/cached: result-cache hit statistics — a
    // warm campaign must compare equal to a cold one (docs/serving.md).
    // recovered/deduped: serving-layer delivery provenance — a campaign
    // resumed across a server crash (or answered by a deduplicated
    // submit) must compare equal to an uninterrupted one.
    return key == "wall_ms" || key == "run_ms" || key == "mips" ||
           key == "geo_mean_mips" || key == "git_rev" || key == "jobs" ||
           key == "tier" || key == "dbt" || key == "jit" ||
           key == "repeat" || key == "cache" || key == "cached" ||
           key == "recovered" || key == "deduped";
}

json::Value strip_host_fields(const json::Value& v)
{
    if (v.is_object()) {
        json::Value out = json::Value::object();
        for (const auto& [key, member] : v.members())
            if (!is_host_field(key)) out[key] = strip_host_fields(member);
        return out;
    }
    if (v.is_array()) {
        json::Value out = json::Value::array();
        for (const auto& item : v.items())
            out.push_back(strip_host_fields(item));
        return out;
    }
    return v;
}

OutcomeCounts count_outcomes(std::span<const JobOutcome> outcomes)
{
    OutcomeCounts c;
    for (const JobOutcome& o : outcomes) {
        switch (o.status) {
        case JobStatus::Ok: ++c.ok; break;
        case JobStatus::Timeout: ++c.timeout; break;
        case JobStatus::Error: ++c.error; break;
        case JobStatus::Crashed: ++c.crashed; break;
        case JobStatus::Quarantined: ++c.quarantined; break;
        case JobStatus::Skipped: ++c.skipped; break;
        }
    }
    return c;
}

json::Value summary_json(std::span<const Job> jobs,
                         std::span<const JobOutcome> outcomes)
{
    const OutcomeCounts c = count_outcomes(outcomes);
    json::Value v = json::Value::object();
    v["ok"] = c.ok;
    v["timeout"] = c.timeout;
    v["error"] = c.error;
    v["crashed"] = c.crashed;
    v["quarantined"] = c.quarantined;
    v["skipped"] = c.skipped;
    v["partial"] = c.partial();
    json::Value quarantined = json::Value::array();
    json::Value failed = json::Value::array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string& name =
            i < jobs.size() ? jobs[i].name : std::to_string(i);
        if (outcomes[i].status == JobStatus::Quarantined)
            quarantined.push_back(name);
        else if (outcomes[i].status == JobStatus::Timeout ||
                 outcomes[i].status == JobStatus::Error ||
                 outcomes[i].status == JobStatus::Crashed)
            failed.push_back(name);
    }
    v["quarantined_jobs"] = quarantined;
    v["failed_jobs"] = failed;
    return v;
}

int grid_exit_code(std::span<const JobOutcome> outcomes, bool keep_going)
{
    const OutcomeCounts c = count_outcomes(outcomes);
    if (c.partial()) return 130;
    if (c.failed() > 0 && !keep_going) return 1;
    return 0;
}

} // namespace hwst::exec
