// json_check — CI validator for the BENCH_<name>.json files the
// harnesses emit: parses each argument with the exec JSON parser,
// checks the envelope (schema_version, bench, jobs, wall_ms) and exits
// non-zero on the first malformed file. `bench-smoke` runs it after
// every harness.
//
// `json_check --journal FILE...` switches to journal mode: the header
// must carry journal_version/bench/grid_hash, and every record should
// round-trip through outcome_from_record. Mirroring --resume (which
// forgives a torn tail from a crashed worker), malformed record lines
// are skipped but *counted*: the report names their line numbers.
// `--strict-journal` makes any skipped line a failure — for journals
// from completed runs, which should be whole.
//
// `json_check --equiv A B` compares two BENCH envelopes after stripping
// host-side fields (wall_ms, run_ms, mips, geo_mean_mips, git_rev,
// jobs, tier choice + dbt/jit counters, cache stats): the determinism
// contract of docs/performance.md
// says host speed may change between runs and revisions, simulated
// numbers may not — this is the check that enforces it. The strip
// itself is exec::strip_host_fields, shared with the engine's DBT
// divergence sentinel so the two comparators cannot drift apart.
//
// `json_check --cache DIR [GIT_REV]` audits a content-addressed result
// cache (docs/serving.md): counts cells/bytes/dangling temps, validates
// every cell (parse, version, address re-hash, record round trip), and
// with GIT_REV flags cells another build published. Invalid or stale
// cells exit 1.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exec/journal.hpp"
#include "exec/report.hpp"
#include "serve/cache.hpp"

using namespace hwst;

namespace {

int check_equiv(const char* a_path, const char* b_path)
{
    const auto a = exec::strip_host_fields(exec::read_bench_json(a_path));
    const auto b = exec::strip_host_fields(exec::read_bench_json(b_path));
    if (a.dump(2) != b.dump(2)) {
        std::cerr << "json_check: " << a_path << " and " << b_path
                  << " differ beyond host-side fields\n";
        return 1;
    }
    std::cout << a_path << " == " << b_path
              << " (modulo host-side fields)\n";
    return 0;
}

/// Extra schema for the interpreter-throughput envelope: the perf
/// trajectory is only diffable if every entry records its revision and
/// per-workload MIPS rows.
void check_interp_speed(const exec::json::Value& v)
{
    const auto* rev = v.find("git_rev");
    if (!rev || !rev->is_string())
        throw exec::json::JsonError{"missing string key: git_rev"};
    const auto* geo = v.find("geo_mean_mips");
    if (!geo || !(geo->is_number() || geo->is_null()))
        throw exec::json::JsonError{"geo_mean_mips must be number|null"};
    const auto* rows = v.find("rows");
    if (!rows || !rows->is_array())
        throw exec::json::JsonError{"missing array key: rows"};
    for (const auto& row : rows->items()) {
        for (const char* key : {"workload", "scheme"}) {
            const auto* s = row.find(key);
            if (!s || !s->is_string())
                throw exec::json::JsonError{
                    std::string{"row: missing string key: "} + key};
        }
        for (const char* key : {"instret", "cycles"}) {
            const auto* n = row.find(key);
            if (!n || !n->is_int())
                throw exec::json::JsonError{
                    std::string{"row: missing int key: "} + key};
        }
        for (const char* key : {"run_ms", "mips"}) {
            const auto* n = row.find(key);
            if (!n || !n->is_number())
                throw exec::json::JsonError{
                    std::string{"row: missing number key: "} + key};
        }
        const auto* rtier = row.find("tier");
        if (!rtier || !rtier->is_string())
            throw exec::json::JsonError{"row: missing string key: tier"};
        const auto* dbt = row.find("dbt");
        if (!dbt || !dbt->is_object())
            throw exec::json::JsonError{"row: missing object key: dbt"};
        for (const char* key : {"blocks", "block_execs", "chained",
                                "flushes", "fallback_runs"}) {
            const auto* n = dbt->find(key);
            if (!n || !n->is_int())
                throw exec::json::JsonError{
                    std::string{"row.dbt: missing int key: "} + key};
        }
        // Tier-2 JIT counter block (docs/performance.md "Tier-2 JIT"):
        // host-side like dbt, but schema-checked so the trajectory can
        // trust the counters exist for every entry.
        const auto* jit = row.find("jit");
        if (!jit || !jit->is_object())
            throw exec::json::JsonError{"row: missing object key: jit"};
        for (const char* key : {"translated", "code_bytes", "bailouts",
                                "chain_patches", "evictions"}) {
            const auto* n = jit->find(key);
            if (!n || !n->is_int())
                throw exec::json::JsonError{
                    std::string{"row.jit: missing int key: "} + key};
        }
    }
    const auto* tier = v.find("tier");
    if (!tier || !tier->is_string())
        throw exec::json::JsonError{"missing string key: tier"};
}

/// Validate one journal. The header is load-bearing (a journal without
/// one replays nothing) and always fatal when broken; record lines that
/// fail to parse or round-trip are skipped-and-counted, exactly as a
/// --resume would skip them. Returns the number of skipped lines so
/// --strict-journal can turn any of them into a failure.
std::size_t check_journal(const char* path)
{
    std::ifstream in{path};
    if (!in)
        throw exec::json::JsonError{"cannot open journal"};
    std::string line;
    std::size_t lineno = 0;
    std::size_t records = 0;
    std::vector<std::size_t> skipped;
    std::string bench;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        exec::json::Value v;
        try {
            v = exec::json::Value::parse(line);
        } catch (const exec::json::JsonError& e) {
            if (lineno == 1)
                throw exec::json::JsonError{"header: " +
                                            std::string{e.what()}};
            skipped.push_back(lineno);
            continue;
        }
        if (lineno == 1) {
            const auto* version = v.find("journal_version");
            const auto* b = v.find("bench");
            const auto* hash = v.find("grid_hash");
            if (!version || !version->is_int() ||
                version->as_int() != exec::kJournalVersion)
                throw exec::json::JsonError{
                    "header: bad journal_version"};
            if (!b || !b->is_string())
                throw exec::json::JsonError{
                    "header: missing string key: bench"};
            if (!hash || !hash->is_string())
                throw exec::json::JsonError{
                    "header: missing string key: grid_hash"};
            bench = b->as_string();
            continue;
        }
        try {
            (void)exec::outcome_from_record(v);
            ++records;
        } catch (const exec::json::JsonError&) {
            skipped.push_back(lineno);
        }
    }
    if (lineno == 0)
        throw exec::json::JsonError{"empty journal (missing header)"};
    std::cout << path << ": ok (bench=" << bench << ", records=" << records
              << ", skipped=" << skipped.size();
    if (!skipped.empty()) {
        std::cout << " [lines";
        for (const std::size_t n : skipped) std::cout << ' ' << n;
        std::cout << ']';
    }
    std::cout << ")\n";
    return skipped.size();
}

} // namespace

int main(int argc, char** argv)
{
    bool journal_mode = false;
    bool strict_journal = false;
    int first = 1;
    if (argc > 1 && std::string{argv[1]} == "--journal") {
        journal_mode = true;
        first = 2;
    }
    if (argc > 1 && std::string{argv[1]} == "--strict-journal") {
        journal_mode = true;
        strict_journal = true;
        first = 2;
    }
    if (argc > 1 && std::string{argv[1]} == "--equiv") {
        if (argc != 4) {
            std::cerr << "usage: json_check --equiv A.json B.json\n";
            return 2;
        }
        try {
            return check_equiv(argv[2], argv[3]);
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << e.what() << '\n';
            return 1;
        }
    }
    if (argc > 1 && std::string{argv[1]} == "--cache") {
        if (argc != 3 && argc != 4) {
            std::cerr << "usage: json_check --cache DIR [GIT_REV]\n";
            return 2;
        }
        try {
            const serve::CacheAudit audit =
                serve::audit_cache(argv[2], argc == 4 ? argv[3] : "");
            for (const auto& p : audit.problems)
                std::cerr << "  " << p << '\n';
            std::cout << argv[2] << ": " << audit.cells << " cells, "
                      << audit.bytes << " bytes, " << audit.dangling_tmp
                      << " dangling temps, " << audit.invalid
                      << " invalid, " << audit.stale << " stale\n";
            return audit.ok() ? 0 : 1;
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << e.what() << '\n';
            return 1;
        }
    }
    if (first >= argc) {
        std::cerr
            << "usage: json_check BENCH_<name>.json...\n"
               "       json_check --journal BENCH_<name>.journal...\n"
               "       json_check --strict-journal "
               "BENCH_<name>.journal...\n"
               "       json_check --equiv A.json B.json\n"
               "       json_check --cache DIR [GIT_REV]\n"
               "--journal skips-and-counts malformed record lines (like "
               "--resume);\n"
               "--strict-journal fails on any skipped line.\n"
               "--cache audits a result cache; GIT_REV flags stale "
               "cells.\n";
        return 2;
    }
    bool any_skipped = false;
    for (int i = first; i < argc; ++i) {
        try {
            if (journal_mode) {
                if (check_journal(argv[i]) != 0) any_skipped = true;
                continue;
            }
            const auto v = exec::read_bench_json(argv[i]);
            const auto* bench = v.find("bench");
            const auto* jobs = v.find("jobs");
            const auto* wall = v.find("wall_ms");
            if (!bench || !bench->is_string())
                throw exec::json::JsonError{"missing string key: bench"};
            if (!jobs || !jobs->is_int())
                throw exec::json::JsonError{"missing int key: jobs"};
            if (!wall || !wall->is_number())
                throw exec::json::JsonError{"missing number key: wall_ms"};
            if (bench->as_string() == "interp_speed")
                check_interp_speed(v);
            std::cout << argv[i] << ": ok (bench="
                      << bench->as_string() << ", jobs=" << jobs->as_int()
                      << ")\n";
        } catch (const std::exception& e) {
            std::cerr << "json_check: " << argv[i] << ": " << e.what()
                      << '\n';
            return 1;
        }
    }
    if (strict_journal && any_skipped) {
        std::cerr << "json_check: --strict-journal: journals contain "
                     "skipped lines\n";
        return 1;
    }
    return 0;
}
