// Serving-layer tests (docs/serving.md): the content-addressed result
// cache's hit/miss/bit-equality contract (cold vs warm vs --jobs 1),
// git_rev pinning, LRU eviction under a byte budget, the json_check
// audit, the grid-fingerprint config folding that keys it all — and
// the campaign server end to end: concurrent clients submitting the
// same grid get bit-identical records modulo host timing, a graceful
// stop mid-campaign still delivers a valid (partial) finished event,
// and malformed requests poison their reply, never the server.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/driver.hpp"
#include "exec/engine.hpp"
#include "exec/envelope.hpp"
#include "exec/journal.hpp"
#include "exec/report.hpp"
#include "exec/simrun.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "workloads/workload.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define HWST_SERVE_TEST_POSIX 1
#include <unistd.h>
#endif

using namespace hwst;
using common::u64;
using exec::Engine;
using exec::EngineOptions;
using exec::Job;
using exec::JobOutcome;
using exec::JobStatus;

namespace fs = std::filesystem;

namespace {

/// A fresh, empty directory under the system temp root.
std::string fresh_dir(const std::string& name)
{
    const fs::path p = fs::temp_directory_path() / name;
    fs::remove_all(p);
    return p.string();
}

/// The small real-simulation grid the cache tests run.
std::vector<Job> small_grid()
{
    std::vector<Job> jobs;
    for (const char* name : {"crc32", "treeadd"}) {
        const auto& w = workloads::workload(name);
        for (const auto scheme :
             {compiler::Scheme::None, compiler::Scheme::Hwst128Tchk}) {
            jobs.push_back(exec::make_sim_job(
                std::string{name} + "/" +
                    std::string{compiler::scheme_name(scheme)},
                name, scheme, w.build));
        }
    }
    return jobs;
}

/// The grid-ordered record array both sides of every bit-equality claim
/// reduce to — the exact payload the server's finished event carries.
exec::json::Value records_json(const std::vector<Job>& jobs,
                               const std::vector<JobOutcome>& outcomes)
{
    exec::json::Value records = exec::json::Value::array();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        records.push_back(
            exec::outcome_to_record(jobs[i].key, outcomes[i]));
    return records;
}

/// Records with host-side fields (wall_ms, ...) stripped — the --equiv
/// projection, for comparing runs that executed on different schedules.
std::string stripped(const exec::json::Value& records)
{
    return exec::strip_host_fields(records).dump();
}

/// Total bytes published under a cache root.
u64 cells_bytes(const std::string& root)
{
    u64 total = 0;
    for (const auto& e :
         fs::directory_iterator{fs::path{root} / "cells"})
        total += static_cast<u64>(fs::file_size(e.path()));
    return total;
}

serve::CacheOptions cache_opts(const std::string& root,
                               const char* rev = "rev1", u64 max = 0)
{
    return serve::CacheOptions{
        .root = root, .max_bytes = max, .git_rev = rev};
}

} // namespace

// ---- ResultCache -----------------------------------------------------

TEST(ServeCache, ColdRunPublishesWarmRunServesBitIdentical)
{
    const std::string root = fresh_dir("serve_cache_roundtrip");
    const std::vector<Job> jobs = small_grid();

    auto cache = std::make_shared<serve::ResultCache>(cache_opts(root));
    serve::CampaignCache cold_binding{cache, "serve_test", 42};
    EngineOptions cold_opts;
    cold_opts.jobs = 4;
    cold_opts.cache = &cold_binding;
    const auto cold = Engine{cold_opts}.run(jobs);
    for (const auto& o : cold) {
        ASSERT_EQ(o.status, JobStatus::Ok);
        EXPECT_FALSE(o.from_cache);
    }
    EXPECT_EQ(cache->stores(), jobs.size());

    // A second campaign over the same grid — serial this time, through
    // a fresh binding — must resolve every cell from the store and
    // reproduce the records bit-identically, host timing included: a
    // served cell round-trips the cold run's record verbatim.
    serve::CampaignCache warm_binding{cache, "serve_test", 42};
    EngineOptions warm_opts;
    warm_opts.jobs = 1;
    warm_opts.cache = &warm_binding;
    const auto warm = Engine{warm_opts}.run(jobs);
    for (const auto& o : warm) {
        ASSERT_EQ(o.status, JobStatus::Ok);
        EXPECT_TRUE(o.from_cache);
    }
    EXPECT_EQ(cache->hits(), jobs.size());
    EXPECT_EQ(records_json(jobs, cold).dump(),
              records_json(jobs, warm).dump());
}

TEST(ServeCache, DifferentGridHashOrRevisionMisses)
{
    const std::string root = fresh_dir("serve_cache_keys");
    const std::vector<Job> jobs = small_grid();

    auto cache = std::make_shared<serve::ResultCache>(cache_opts(root));
    serve::CampaignCache binding{cache, "serve_test", 42};
    EngineOptions opts;
    opts.jobs = 2;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);
    ASSERT_EQ(cache->stores(), jobs.size());

    // Another fingerprint addresses different cells entirely.
    serve::CampaignCache other_grid{cache, "serve_test", 43};
    EXPECT_FALSE(other_grid.load(jobs[0]).has_value());

    // Same address fields, rebuilt binary: the stored git_rev no longer
    // matches, so the cell reads as a miss (never a stale serve).
    auto rebuilt = std::make_shared<serve::ResultCache>(
        cache_opts(root, "rev2"));
    serve::CampaignCache stale{rebuilt, "serve_test", 42};
    EXPECT_FALSE(stale.load(jobs[0]).has_value());

    // The original binding still hits.
    EXPECT_TRUE(binding.load(jobs[0]).has_value());
}

TEST(ServeCache, NonOkOutcomesAreNeverPublished)
{
    const std::string root = fresh_dir("serve_cache_nonok");
    auto cache = std::make_shared<serve::ResultCache>(cache_opts(root));
    const serve::CellKey key{"b", "0x1", "k", 7, "rev1"};
    JobOutcome failed;
    failed.status = JobStatus::Error;
    failed.error = "boom";
    cache->store(key, failed);
    EXPECT_EQ(cache->stores(), 0u);
    EXPECT_FALSE(cache->load(key).has_value());
}

TEST(ServeCache, EvictionUnderPressureKeepsTheBudget)
{
    const std::vector<Job> jobs = small_grid();

    // Probe pass: measure what the whole grid occupies unbounded.
    const std::string probe_root = fresh_dir("serve_cache_evict_probe");
    auto probe =
        std::make_shared<serve::ResultCache>(cache_opts(probe_root));
    serve::CampaignCache probe_binding{probe, "serve_test", 42};
    EngineOptions probe_opts;
    probe_opts.jobs = 1;
    probe_opts.cache = &probe_binding;
    (void)Engine{probe_opts}.run(jobs);
    const u64 total = cells_bytes(probe_root);
    ASSERT_GT(total, 0u);

    // Budgeted pass: half the footprint forces LRU eviction, and the
    // store must land under the budget when the campaign ends.
    const u64 budget = total / 2;
    const std::string root = fresh_dir("serve_cache_evict");
    auto cache = std::make_shared<serve::ResultCache>(
        cache_opts(root, "rev1", budget));
    serve::CampaignCache binding{cache, "serve_test", 42};
    EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);
    EXPECT_GT(cache->evictions(), 0u);
    EXPECT_LE(cells_bytes(root), budget);
    // What survived still audits clean.
    EXPECT_TRUE(serve::audit_cache(root, "rev1").ok());
}

TEST(ServeCache, AuditFlagsCorruptionDanglingTempsAndStaleCells)
{
    const std::string root = fresh_dir("serve_cache_audit");
    const std::vector<Job> jobs = small_grid();
    auto cache = std::make_shared<serve::ResultCache>(cache_opts(root));
    serve::CampaignCache binding{cache, "serve_test", 42};
    EngineOptions opts;
    opts.jobs = 1;
    opts.cache = &binding;
    (void)Engine{opts}.run(jobs);

    serve::CacheAudit audit = serve::audit_cache(root, "rev1");
    EXPECT_EQ(audit.cells, jobs.size());
    EXPECT_TRUE(audit.ok());
    EXPECT_EQ(audit.dangling_tmp, 0u);

    // Another build's expectation flags every cell stale.
    audit = serve::audit_cache(root, "rev2");
    EXPECT_EQ(audit.stale, jobs.size());
    EXPECT_FALSE(audit.ok());

    // A crashed publisher's leftover temp is counted, not fatal.
    std::ofstream{fs::path{root} / "tmp" / "deadbeef.1.0"} << "partial";
    // A truncated cell is invalid.
    const auto first =
        fs::directory_iterator{fs::path{root} / "cells"}->path();
    std::ofstream{first, std::ios::trunc} << "{\"torn\":";
    audit = serve::audit_cache(root);
    EXPECT_EQ(audit.dangling_tmp, 1u);
    EXPECT_EQ(audit.invalid, 1u);
    EXPECT_FALSE(audit.ok());

    // And the torn cell reads as a miss, never a parse error: of the
    // four published cells, exactly one is gone.
    EXPECT_EQ(cache->hits(), 0u);
    for (const auto& j : jobs) (void)binding.load(j);
    EXPECT_EQ(cache->hits(), jobs.size() - 1);
}

// ---- grid fingerprint config folding ---------------------------------

TEST(ServeFingerprint, ConfigTweaksChangeTheGridHash)
{
    serve::GridSpec plain;
    plain.workloads = {"crc32"};
    plain.schemes = {"hwst128_tchk"};
    serve::GridSpec tweaked = plain;
    tweaked.keybuffer = 16;
    serve::GridSpec shrunk = plain;
    shrunk.dcache_kib = 16;

    const u64 a = plain.fingerprint();
    const u64 b = tweaked.fingerprint();
    const u64 c = shrunk.fingerprint();
    EXPECT_NE(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(b, c);

    // An untweaked spec folds no config_desc, so it matches the plain
    // grid_fingerprint(jobs) the local harnesses compute.
    EXPECT_EQ(plain.config_desc(), "");
    EXPECT_EQ(a, exec::grid_fingerprint(plain.jobs()));
    EXPECT_EQ(b, exec::grid_fingerprint(tweaked.jobs(), 0,
                                        tweaked.config_desc()));
}

TEST(ServeFingerprint, SpecRoundTripsThroughJson)
{
    serve::GridSpec spec;
    spec.workloads = {"crc32", "treeadd"};
    spec.schemes = {"none", "hwst128_tchk"};
    spec.keybuffer = 4;
    const serve::GridSpec back =
        serve::GridSpec::from_json(spec.to_json());
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
    EXPECT_EQ(back.jobs().size(), spec.jobs().size());
}

// ---- the campaign server ---------------------------------------------

namespace {

struct ServerFixture {
    std::string root;
    std::string socket;
    std::unique_ptr<serve::Server> server;

    explicit ServerFixture(
        const std::string& name, unsigned jobs = 2, bool cache = true,
        const std::function<void(serve::ServerOptions&)>& tweak = {})
    {
        root = fresh_dir(name + "_cache");
        socket =
            (fs::temp_directory_path() / (name + ".sock")).string();
        serve::ServerOptions opts;
        opts.socket_path = socket;
        if (cache) opts.cache_root = root;
        opts.engine.jobs = jobs;
        if (tweak) tweak(opts);
        server = std::make_unique<serve::Server>(std::move(opts));
        server->start();
    }
    ~ServerFixture()
    {
        if (server) server->stop();
    }
};

exec::json::Value submit_req(const serve::GridSpec& spec)
{
    exec::json::Value req = exec::json::Value::object();
    req["op"] = "submit";
    req["grid"] = spec.to_json();
    return req;
}

exec::json::Value wait_req(const exec::json::Value& id)
{
    exec::json::Value req = exec::json::Value::object();
    req["op"] = "wait";
    req["id"] = id;
    return req;
}

/// Drain the wait stream until the finished event (asserting the
/// connection stays up).
exec::json::Value read_finished(serve::Client& client)
{
    for (;;) {
        auto ev = client.recv();
        if (!ev) {
            ADD_FAILURE() << "connection lost before finished event";
            return exec::json::Value::object();
        }
        if (ev->find("event") &&
            ev->at("event").as_string() == "finished")
            return std::move(*ev);
    }
}

/// submit + wait on one connection; returns the finished event.
exec::json::Value submit_and_wait(const std::string& socket,
                                  const serve::GridSpec& spec)
{
    serve::Client client{socket};
    const auto reply = client.rpc(submit_req(spec));
    EXPECT_TRUE(client.send(wait_req(reply.at("id"))));
    return read_finished(client);
}

serve::GridSpec test_spec()
{
    serve::GridSpec spec;
    spec.workloads = {"crc32", "treeadd"};
    spec.schemes = {"none", "hwst128_tchk"};
    return spec;
}

} // namespace

TEST(ServeServer, SubmittedGridMatchesLocalRunAndWarmsTheCache)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_submit"};
    const serve::GridSpec spec = test_spec();
    const std::vector<Job> jobs = spec.jobs();

    const auto cold = submit_and_wait(f.socket, spec);
    ASSERT_TRUE(cold.find("records"));
    EXPECT_EQ(cold.at("cells").as_int(),
              static_cast<common::i64>(jobs.size()));
    EXPECT_EQ(cold.at("cached").as_int(), 0);

    // Same grid again: every cell must come from the cache, records
    // bit-identical — host timing included, because a served cell
    // round-trips the cold run's record verbatim.
    const auto warm = submit_and_wait(f.socket, spec);
    EXPECT_EQ(warm.at("cached").as_int(),
              static_cast<common::i64>(jobs.size()));
    EXPECT_EQ(cold.at("records").dump(), warm.at("records").dump());

    // Both match a local serial run of the same GridSpec modulo
    // host-side fields (wall_ms differs across schedules; simulated
    // numbers may not) — the --equiv contract, client side.
    EngineOptions opts;
    opts.jobs = 1;
    const auto local = Engine{opts}.run(jobs);
    EXPECT_EQ(stripped(cold.at("records")),
              stripped(records_json(jobs, local)));

    // The cache the server warmed audits clean under the server's rev.
    const auto audit =
        serve::audit_cache(f.root, exec::build_git_rev());
    EXPECT_EQ(audit.cells, jobs.size());
    EXPECT_TRUE(audit.ok());
}

TEST(ServeServer, ConcurrentClientsGetEquivalentRecords)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_concurrent", 4};
    const serve::GridSpec spec = test_spec();

    constexpr int kClients = 3;
    std::vector<std::string> records(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            records[static_cast<std::size_t>(i)] =
                stripped(submit_and_wait(f.socket, spec).at("records"));
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_FALSE(records[0].empty());
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(records[0], records[static_cast<std::size_t>(i)]);

    const serve::ServerStats stats = f.server->stats();
    EXPECT_EQ(stats.campaigns, static_cast<u64>(kClients));
    EXPECT_EQ(stats.cells, spec.jobs().size() * kClients);
    EXPECT_EQ(stats.cached + stats.run, stats.cells);
}

TEST(ServeServer, GracefulStopDeliversValidPartialResults)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    ServerFixture f{"serve_drain", 1};
    serve::GridSpec spec;
    spec.workloads = {"milc", "lbm", "sphinx3", "sjeng"};
    spec.schemes = {"sbcets", "hwst128_tchk"};
    const std::vector<Job> jobs = spec.jobs();

    serve::Client client{f.socket};
    const auto reply = client.rpc(submit_req(spec));
    ASSERT_TRUE(client.send(wait_req(reply.at("id"))));
    // The wait handler sends a progress event immediately; reading it
    // proves the request landed before we pull the plug.
    const auto first = client.recv();
    ASSERT_TRUE(first.has_value());

    // Drain mid-campaign (the SIGTERM path): the waiting client must
    // still get its finished event, every slot filled — resolved cells
    // with real outcomes, unstarted cells Skipped.
    f.server->stop();
    const auto finished =
        first->find("event") &&
                first->at("event").as_string() == "finished"
            ? *first
            : read_finished(client);

    const auto& records = finished.at("records").items();
    ASSERT_EQ(records.size(), jobs.size());
    std::size_t ok = 0;
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        auto [key, outcome] = exec::outcome_from_record(records[i]);
        EXPECT_EQ(key, jobs[i].key);
        if (outcome.status == JobStatus::Ok) ++ok;
        if (outcome.status == JobStatus::Skipped) ++skipped;
    }
    EXPECT_EQ(ok + skipped, jobs.size());
    // The summary agrees with the records — the partial envelope a
    // client writes from this event is internally consistent.
    EXPECT_EQ(static_cast<std::size_t>(
                  finished.at("summary").at("ok").as_int()),
              ok);
    EXPECT_EQ(static_cast<std::size_t>(
                  finished.at("summary").at("skipped").as_int()),
              skipped);
}

// stop() must wake every idle worker: a stop flag published outside
// the queue lock can land between a worker's wait predicate and its
// wait, the worker sleeps through the notify and stop() hangs in join.
// Back-to-back start/stop cycles with idle workers keep hitting that
// window; the ctest timeout bounds a regression.
TEST(ServeServer, RepeatedStartStopWithIdleWorkersNeverHangs)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const std::string socket =
        (fs::temp_directory_path() / "serve_start_stop.sock").string();
    for (int i = 0; i < 200; ++i) {
        serve::ServerOptions opts;
        opts.socket_path = socket;
        opts.engine.jobs = 2;
        serve::Server server{std::move(opts)};
        server.start();
        server.stop();
    }
}

TEST(ServeServer, MalformedRequestsPoisonTheReplyNotTheServer)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_errors", 1, /*cache=*/false};

    {
        serve::Client client{f.socket};
        exec::json::Value bad = exec::json::Value::object();
        bad["op"] = "frobnicate";
        EXPECT_THROW((void)client.rpc(bad), common::ToolchainError);
    }
    {
        serve::Client client{f.socket};
        exec::json::Value poll = exec::json::Value::object();
        poll["op"] = "poll";
        poll["id"] = "c999";
        EXPECT_THROW((void)client.rpc(poll), common::ToolchainError);
    }
#ifdef HWST_SERVE_TEST_POSIX
    {
        // A raw non-JSON line gets an error reply, not a dropped
        // connection or a dead server.
        const int fd = serve::connect_unix(f.socket);
        ASSERT_GE(fd, 0);
        const std::string garbage = "this is not json\n";
        ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
                  static_cast<ssize_t>(garbage.size()));
        serve::LineReader reader{fd};
        const auto reply = reader.read_json();
        ASSERT_TRUE(reply.has_value());
        EXPECT_FALSE(reply->at("ok").as_bool());
        ::close(fd);
    }
#endif
    // The server survived all of it: a well-formed submit still works.
    serve::GridSpec spec;
    spec.workloads = {"crc32"};
    spec.schemes = {"none"};
    const auto finished = submit_and_wait(f.socket, spec);
    EXPECT_EQ(finished.at("cells").as_int(), 1);
}

// ---- admission control + backpressure --------------------------------

namespace {

/// The 8-cell grid of slower workloads the load/drain/recovery tests
/// use — big enough that one worker is still busy when a second
/// request lands.
serve::GridSpec slow_spec()
{
    serve::GridSpec spec;
    spec.workloads = {"milc", "lbm", "sphinx3", "sjeng"};
    spec.schemes = {"sbcets", "hwst128_tchk"};
    return spec;
}

/// Raw send + recv (no throw-on-refusal), for inspecting error replies.
exec::json::Value raw_rpc(serve::Client& client,
                          const exec::json::Value& req)
{
    EXPECT_TRUE(client.send(req));
    auto reply = client.recv();
    EXPECT_TRUE(reply.has_value());
    return reply ? *reply : exec::json::Value::object();
}

} // namespace

TEST(ServeAdmission, QueueBoundShedsSubmitsWithRetryAfter)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{
        "serve_admission", 1, /*cache=*/false,
        [](serve::ServerOptions& o) { o.max_queued_cells = 4; }};

    serve::Client client{f.socket};
    const auto accepted = raw_rpc(client, submit_req(slow_spec()));
    ASSERT_TRUE(accepted.at("ok").as_bool());

    // The worker holds cell 0; at least 4 cells still sit in the queue,
    // so the very next submit must shed with a structured reply.
    const auto shed = raw_rpc(client, submit_req(test_spec()));
    ASSERT_FALSE(shed.at("ok").as_bool());
    EXPECT_EQ(shed.at("error").as_string(), "overloaded");
    EXPECT_EQ(shed.at("reason").as_string(), "queue");
    EXPECT_GT(shed.at("retry_after_ms").as_int(), 0);
    EXPECT_EQ(f.server->stats().overloaded, 1u);

    // The accepted campaign is unharmed: wait it out.
    EXPECT_TRUE(client.send(wait_req(accepted.at("id"))));
    const auto finished = read_finished(client);
    EXPECT_EQ(finished.at("cells").as_int(), 8);
}

TEST(ServeAdmission, PerClientInflightCapShedsOnlyTheGreedyClient)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{
        "serve_inflight", 1, /*cache=*/false,
        [](serve::ServerOptions& o) { o.max_client_inflight = 1; }};

    serve::Client greedy{f.socket};
    const auto first = raw_rpc(greedy, submit_req(slow_spec()));
    ASSERT_TRUE(first.at("ok").as_bool());
    const auto second = raw_rpc(greedy, submit_req(test_spec()));
    ASSERT_FALSE(second.at("ok").as_bool());
    EXPECT_EQ(second.at("error").as_string(), "overloaded");
    EXPECT_EQ(second.at("reason").as_string(), "client_inflight");

    // The cap is per connection: another client still gets in.
    serve::Client other{f.socket};
    const auto ok = raw_rpc(other, submit_req(test_spec()));
    EXPECT_TRUE(ok.at("ok").as_bool());
}

TEST(ServeAdmission, DedupedResubmitLandsOnTheLiveCampaign)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_dedup", 1, /*cache=*/false};

    serve::Client a{f.socket};
    const auto first = raw_rpc(a, submit_req(slow_spec()));
    ASSERT_TRUE(first.at("ok").as_bool());

    // A retried submit (reply lost, client resends with dedup) must be
    // answered with the live campaign, not double-run.
    serve::Client b{f.socket};
    exec::json::Value retry = submit_req(slow_spec());
    retry["dedup"] = true;
    const auto deduped = raw_rpc(b, retry);
    ASSERT_TRUE(deduped.at("ok").as_bool());
    EXPECT_TRUE(deduped.at("deduped").as_bool());
    EXPECT_EQ(deduped.at("id").as_string(), first.at("id").as_string());
    const serve::ServerStats stats = f.server->stats();
    EXPECT_EQ(stats.campaigns, 1u);
    EXPECT_EQ(stats.deduped, 1u);

    // Without the flag, identical submits stay separate campaigns
    // (ConcurrentClientsGetEquivalentRecords depends on it).
    const auto fresh = raw_rpc(b, submit_req(slow_spec()));
    ASSERT_TRUE(fresh.at("ok").as_bool());
    EXPECT_FALSE(fresh.at("deduped").as_bool());
    EXPECT_NE(fresh.at("id").as_string(), first.at("id").as_string());
}

TEST(ServeAdmission, UnknownCampaignReplyIsStructuredAndRecoverable)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_unknown", 1, /*cache=*/false};

    serve::Client client{f.socket};
    exec::json::Value poll = exec::json::Value::object();
    poll["op"] = "poll";
    poll["id"] = "c404";
    const auto reply = raw_rpc(client, poll);
    ASSERT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").as_string(), "unknown_campaign");
    EXPECT_TRUE(reply.at("recoverable").as_bool());
    EXPECT_EQ(reply.at("id").as_string(), "c404");

    // Same contract on the wait path — and the connection stays usable,
    // so a resilient client can resubmit on it.
    const auto wreply = raw_rpc(client, wait_req(poll.at("id")));
    ASSERT_FALSE(wreply.at("ok").as_bool());
    EXPECT_EQ(wreply.at("error").as_string(), "unknown_campaign");
    EXPECT_TRUE(wreply.at("recoverable").as_bool());
    exec::json::Value ping = exec::json::Value::object();
    ping["op"] = "ping";
    EXPECT_TRUE(raw_rpc(client, ping).at("ok").as_bool());
}

// ---- crash recovery --------------------------------------------------

TEST(ServeRecovery, ReplaysJournaledCellsAndRerunsTheRest)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const std::string state = fresh_dir("serve_recover_state");
    const std::string socket =
        (fs::temp_directory_path() / "serve_recover.sock").string();
    const serve::GridSpec spec = slow_spec();
    const std::vector<Job> jobs = spec.jobs();

    serve::ServerOptions opts;
    opts.socket_path = socket;
    opts.state_root = state;
    opts.engine.jobs = 1;

    // Phase 1: submit, let at least one cell land in the journal, then
    // stop the server mid-campaign (the graceful twin of the SIGKILL
    // exercise in serve_chaos_test).
    std::string id;
    {
        serve::Server server{opts};
        server.start();
        serve::Client client{socket};
        const auto reply = client.rpc(submit_req(spec));
        id = reply.at("id").as_string();
        ASSERT_TRUE(client.send(wait_req(reply.at("id"))));
        for (;;) {
            const auto ev = client.recv();
            ASSERT_TRUE(ev.has_value());
            if (ev->find("event") &&
                ev->at("event").as_string() == "progress" &&
                ev->at("finished").as_int() >= 1)
                break;
        }
        server.stop();
    }

    // Phase 2: a fresh server over the same state directory resumes the
    // campaign — journaled cells replay, unstarted cells re-run — and a
    // re-wait by the old id completes it.
    opts.recover = true;
    serve::Server server{opts};
    server.start();
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.recovered, 1u);
    EXPECT_GE(stats.replayed, 1u);

    serve::Client client{socket};
    ASSERT_TRUE(client.send(wait_req(exec::json::Value{id})));
    const auto finished = read_finished(client);
    EXPECT_TRUE(finished.at("recovered").as_bool());
    EXPECT_FALSE(finished.at("drained").as_bool());

    // Every slot resolved — nothing left Skipped — and the records are
    // equivalent to an uninterrupted local run of the same grid.
    const auto& records = finished.at("records").items();
    ASSERT_EQ(records.size(), jobs.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        auto [key, outcome] = exec::outcome_from_record(records[i]);
        EXPECT_EQ(key, jobs[i].key);
        EXPECT_EQ(outcome.status, JobStatus::Ok);
    }
    EngineOptions local;
    local.jobs = 1;
    EXPECT_EQ(stripped(finished.at("records")),
              stripped(records_json(jobs, Engine{local}.run(jobs))));
    server.stop();
}

TEST(ServeRecovery, CorruptStateFileIsSkippedNotFatal)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const std::string state = fresh_dir("serve_recover_corrupt");
    fs::create_directories(state);
    std::ofstream{fs::path{state} / "c1.grid.json"} << "{\"torn\":";
    std::ofstream{fs::path{state} / "c2.grid.json"}
        << "{\"state_version\":999,\"id\":\"c2\"}";

    serve::ServerOptions opts;
    opts.socket_path =
        (fs::temp_directory_path() / "serve_corrupt.sock").string();
    opts.state_root = state;
    opts.recover = true;
    opts.engine.jobs = 1;
    serve::Server server{opts};
    server.start(); // must not throw; both campaigns warn and skip
    EXPECT_EQ(server.stats().recovered, 0u);

    // And the id allocator was untouched by the skipped files: a new
    // submit gets a fresh id and runs normally.
    serve::Client client{opts.socket_path};
    serve::GridSpec spec;
    spec.workloads = {"crc32"};
    spec.schemes = {"none"};
    const auto reply = client.rpc(submit_req(spec));
    EXPECT_TRUE(reply.at("ok").as_bool());
    server.stop();
}

// ---- slow clients ----------------------------------------------------

TEST(ServeBackpressure, SlowClientIsDroppedNotWedged)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_slow", 1, /*cache=*/false,
                          [](serve::ServerOptions& o) {
                              o.write_deadline_ms = 200;
                              o.sndbuf_bytes = 2048;
                          }};
    const auto finished = submit_and_wait(f.socket, test_spec());
    const std::string id = finished.at("id").as_string();

    // A reader that never drains: repeated waits on the finished
    // campaign stream full record payloads into a tiny send buffer
    // until the write deadline trips and the server sheds the
    // connection instead of wedging the handler.
    const int fd = serve::connect_unix(f.socket);
    ASSERT_GE(fd, 0);
    exec::json::Value req = exec::json::Value::object();
    req["op"] = "wait";
    req["id"] = id;
    std::string line = req.dump(0);
    line.push_back('\n');
    std::string burst;
    for (int i = 0; i < 32; ++i) burst += line;
    (void)serve::send_raw(fd, burst);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (f.server->stats().slow_client_drops == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    EXPECT_GE(f.server->stats().slow_client_drops, 1u);
    serve::close_fd(fd);

    // The server is unharmed: a well-behaved client is still served.
    serve::Client client{f.socket};
    exec::json::Value ping = exec::json::Value::object();
    ping["op"] = "ping";
    EXPECT_TRUE(client.rpc(ping).at("ok").as_bool());
}

// ---- the resilient client --------------------------------------------

TEST(ServeResilientClient, ConnectsOnceTheServerArrives)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    // The fixture below binds temp/serve_resilient.sock; the client
    // starts hammering that path before the server exists.
    serve::ClientOptions copts;
    copts.socket_path =
        (fs::temp_directory_path() / "serve_resilient.sock").string();
    fs::remove(copts.socket_path);
    copts.connect_timeout_ms = 200;
    copts.max_attempts = 50;
    copts.backoff_base_ms = 10;
    copts.backoff_cap_ms = 50;
    copts.jitter_seed = 1;

    std::unique_ptr<ServerFixture> f;
    std::thread starter{[&] {
        std::this_thread::sleep_for(std::chrono::milliseconds{300});
        f = std::make_unique<ServerFixture>("serve_resilient", 1,
                                            /*cache=*/false);
    }};
    serve::ResilientClient client{copts};
    exec::json::Value ping = exec::json::Value::object();
    ping["op"] = "ping";
    const auto reply = client.rpc(ping);
    starter.join();
    EXPECT_TRUE(reply.at("ok").as_bool());
    EXPECT_GE(client.reconnects(), 1u);
}

TEST(ServeResilientClient, UnknownCampaignSurfacesAsTypedError)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_rc_unknown", 1, /*cache=*/false};
    serve::ClientOptions copts;
    copts.socket_path = f.socket;
    copts.max_attempts = 2;
    serve::ResilientClient client{copts};
    EXPECT_THROW((void)client.wait("c404", nullptr),
                 serve::UnknownCampaign);
}

TEST(ServeResilientClient, SubmitAndWaitEndToEnd)
{
    if (!serve::serving_supported()) GTEST_SKIP();
    const ServerFixture f{"serve_rc_e2e", 2};
    serve::ClientOptions copts;
    copts.socket_path = f.socket;
    serve::ResilientClient client{copts};

    const serve::GridSpec spec = test_spec();
    const auto reply = client.submit(spec.to_json());
    ASSERT_TRUE(reply.at("ok").as_bool());
    std::size_t progress_events = 0;
    const auto finished =
        client.wait(reply.at("id").as_string(),
                    [&](const exec::json::Value&) { ++progress_events; });
    EXPECT_GE(progress_events, 1u);
    const auto& records = finished.at("records").items();
    ASSERT_EQ(records.size(), spec.jobs().size());
    ASSERT_TRUE(finished.find("grid"));
    EXPECT_EQ(serve::GridSpec::from_json(finished.at("grid"))
                  .fingerprint(),
              spec.fingerprint());
}

// ---- cache eviction racing a concurrent publish ----------------------

TEST(ServeCache, EvictionRacingConcurrentPublishStaysAuditClean)
{
    const std::string root = fresh_dir("serve_cache_race");
    // One real Ok outcome to publish under many synthetic keys.
    EngineOptions one;
    one.jobs = 1;
    const std::vector<Job> seed_jobs{small_grid()[0]};
    const auto outcome = Engine{one}.run(seed_jobs)[0];
    ASSERT_EQ(outcome.status, JobStatus::Ok);

    // A budget small enough that eviction fires constantly while four
    // publishers hammer write-temp+rename — the mtime-LRU sweep must
    // never observe (or leave behind) a torn cell.
    auto cache = std::make_shared<serve::ResultCache>(
        cache_opts(root, "rev1", 8 * 1024));
    std::atomic<bool> done{false};
    std::thread evictor{[&] {
        while (!done.load()) {
            cache->evict_over_budget();
            std::this_thread::sleep_for(std::chrono::milliseconds{1});
        }
    }};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<std::thread> publishers;
    publishers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        publishers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const serve::CellKey key{
                    "race", "0xabc",
                    "k" + std::to_string(t) + "_" + std::to_string(i),
                    7, "rev1"};
                cache->store(key, outcome);
                (void)cache->load(key); // mtime refresh races too
            }
        });
    }
    for (auto& th : publishers) th.join();
    done.store(true);
    evictor.join();

    EXPECT_EQ(cache->stores(),
              static_cast<u64>(kThreads) * kPerThread);
    EXPECT_GT(cache->evictions(), 0u);
    // The audit contract: whatever survived the race parses, addresses
    // and round-trips — no invalid, no stale (dangling temps are legal).
    const auto audit = serve::audit_cache(root, "rev1");
    EXPECT_EQ(audit.invalid, 0u);
    EXPECT_EQ(audit.stale, 0u);
    EXPECT_TRUE(audit.ok());
}
