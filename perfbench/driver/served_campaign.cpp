// served_campaign: an in-process serve::Server (2-worker pool, fresh
// result cache) driven by two serve::ResilientClient connections in a
// closed loop: each sends its next request only after the previous
// round trip finished. Each client submits 23 small cold hwst_run grids
// per pass (one workload under a scheme pair: simulated, then published
// to the cache) and resubmits each one twice right after it finishes
// (cache-served: the cache keys cells by grid). Between them the two
// clients cover the Fig. 4 grid once per pass, and two thirds of the
// requests are cache reads, so cell_p50_ms is the cache-read round trip
// and the tail is the cold one. The only workload that measures the
// serve wire, queue and cache layers and the submit->result round trip;
// a gain for cache reads that costs cache writes shows here.
#include <filesystem>
#include <thread>

#include "exec/engine.hpp"
#include "exec/journal.hpp"
#include "exec/simrun.hpp"
#include "replay.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads/workload.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace perfbench {
namespace {

using namespace hwst;

constexpr unsigned kClients = 2;
constexpr std::size_t kInProcessSample = 6;
constexpr std::size_t kInterpSample = 2;
/// The two scheme pairs the clients alternate between; together they
/// are the Fig. 4 columns.
const std::vector<std::string> kPairs[2] = {{"none", "hwst128_tchk"},
                                            {"sbcets", "hwst128"}};

struct Grid {
    serve::GridSpec spec;
    std::string grid_hash;         ///< the client-side fingerprint
    std::vector<std::string> keys; ///< record keys in grid order
    bool repeat = false;           ///< a resubmission the cache serves
};

/// One delivered cell.
struct Delivered {
    std::string key;
    bool cached = false; ///< a repeat the cache should serve
    sim::RunResult result;
};

class ServedCampaign final : public Workload {
public:
    explicit ServedCampaign(const WorkloadArgs& args)
        : args_{args},
          base_{out_dir() + "/serve-" + std::to_string(::getpid())},
          cache_dir_{base_ + "-cache"}
    {
        empty_cache();
    }
    ~ServedCampaign() override
    {
        teardown();
        std::filesystem::remove_all(cache_dir_);
        std::filesystem::remove(base_ + ".sock");
    }

    void setup() override
    {
        const std::vector<std::size_t> order = permutation(
            workloads::all_workloads().size(),
            exec::derive_seed(args_.seed, 6));
        for (unsigned c = 0; c < kClients; ++c) {
            plans_[c].clear();
            for (std::size_t k = 0; k < order.size(); ++k) {
                Grid g;
                g.spec.schemes = kPairs[(k + c) % 2];
                g.spec.workloads = {
                    workloads::all_workloads()[order[k]].name};
                for (const auto& s : g.spec.schemes)
                    g.keys.push_back(g.spec.workloads[0] + "/" + s);
                // Like hwst_run's client modes, verify every reply's
                // grid_hash against the locally computed fingerprint.
                g.grid_hash = exec::hash_hex(g.spec.fingerprint());
                plans_[c].push_back(g);
                g.repeat = true;
                plans_[c].push_back(g);
                plans_[c].push_back(std::move(g));
            }
        }

        serve::ServerOptions opts;
        opts.socket_path = base_ + ".sock";
        opts.cache_root = cache_dir_;
        opts.engine.jobs = 2;
        server_ = std::make_unique<serve::Server>(opts);
        server_->start();
        for (unsigned c = 0; c < kClients; ++c) {
            serve::ClientOptions co;
            co.socket_path = opts.socket_path;
            co.jitter_seed = exec::derive_seed(args_.seed, 7, c);
            clients_[c] = std::make_unique<serve::ResilientClient>(co);
        }
    }

    /// A client connects on its first request: a ping each. Untimed,
    /// because the round trip waits on the first wake-up of server
    /// threads created a moment before, which the shared host schedules
    /// anywhere from 0.2 to 2.5 ms late; setup_s swung threefold between
    /// runs with it. It also keeps teardown from stopping a server whose
    /// workers have not yet reached their queue wait.
    void settle() override
    {
        exec::json::Value ping = exec::json::Value::object();
        ping["op"] = "ping";
        for (auto& c : clients_) c->rpc(ping);
    }

    void teardown() override
    {
        for (auto& c : clients_) c.reset();
        if (server_) {
            server_->stop();
            server_.reset();
            empty_cache();
        }
    }

    PassStats run_pass(Tracer* tracer, Ledger& ledger) override
    {
        std::vector<Delivered> got[kClients];
        std::vector<double> rt[kClients];
        Calibrator cal[kClients];
        std::string error[kClients];

        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    drive(c, tracer, got[c], rt[c], cal[c]);
                } catch (const std::exception& e) {
                    error[c] = e.what();
                }
            });
        }
        for (auto& t : threads) t.join();
        PassStats st;
        st.wall_s = seconds_since(t0);
        st.side_by_side = true;

        // Every cell must be Ok with the workload's checksum; a repeated
        // cell must equal the cold run it repeats.
        std::map<std::string, sim::RunResult> cold;
        for (unsigned c = 0; c < kClients; ++c) {
            if (!error[c].empty()) {
                ++st.failed;
                if (messages_.size() < 5)
                    messages_.push_back("client error: " + error[c]);
            }
            add_lane(st, rt[c], cal[c]);
            for (const Delivered& d : got[c]) {
                ++st.attempted;
                const std::string wl = d.key.substr(0, d.key.find('/'));
                bool ok = d.result.exit_code ==
                          workloads::workload(wl).expected;
                if (d.cached)
                    ok = ok && cold.count(d.key) &&
                         same_result(cold[d.key], d.result);
                else
                    ok = ok && cold.emplace(d.key, d.result).second;
                if (!ok) {
                    ++st.failed;
                    if (messages_.size() < 5)
                        messages_.push_back("bad served cell " + d.key);
                }
            }
        }

        const serve::ServerStats ss = server_->stats();
        ledger.add("serve.cells", static_cast<double>(ss.cells));
        ledger.add("serve.cells_run", static_cast<double>(ss.run));
        ledger.add("serve.cells_cached", static_cast<double>(ss.cached));
        ledger.add("serve.overloaded", static_cast<double>(ss.overloaded));
        // Each client's first connect happened in settle().
        for (const auto& cl : clients_)
            ledger.add("serve.reconnects",
                       static_cast<double>(cl->reconnects() - 1));

        if (tracer) {
            // In-process replay of the pass's cold cells on a one-worker
            // Engine, outside the timed wall: the per-layer view of the
            // simulations the server ran, and a full served == in-process
            // check.
            std::vector<exec::Job> replay;
            std::vector<const sim::RunResult*> served;
            for (const auto& [key, result] : cold) {
                const std::size_t slash = key.find('/');
                const workloads::Workload& w =
                    workloads::workload(key.substr(0, slash));
                const compiler::Scheme scheme =
                    scheme_of(key.substr(slash + 1));
                exec::Job job;
                job.name = key;
                job.body = [tracer, &ledger, &w,
                            scheme](const exec::JobContext& ctx) {
                    Scope span{tracer, "bench", "job"};
                    return replay_result(
                        ReplaySpec{"workloads", "Workload::build", w.build,
                                   scheme, {}},
                        tracer, &ledger, &ctx.token);
                };
                replay.push_back(std::move(job));
                served.push_back(&result);
            }
            std::vector<exec::JobOutcome> outcomes;
            {
                Scope run{tracer, "exec", "Engine::run"};
                outcomes = engine_.run(replay);
            }
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                ledger.add("exec.jobs", 1);
                if (outcomes[i].status != exec::JobStatus::Ok ||
                    !same_result(outcomes[i].result, *served[i])) {
                    ++st.failed;
                    if (messages_.size() < 5)
                        messages_.push_back("served != in-process: " +
                                            replay[i].name);
                }
            }
        } else {
            last_cold_ = std::move(cold);
            last_instret_ = 0;
            for (const auto& g : got)
                for (const Delivered& d : g)
                    last_instret_ += static_cast<double>(d.result.instret);
        }
        return st;
    }

    void verify(Report& report) override
    {
        for (const std::string& m : messages_) report.messages.push_back(m);
        report.check(!last_cold_.empty(),
                     "served_campaign: no complete untraced pass");
        if (last_cold_.empty()) return;

        Ledger sim;
        std::vector<std::string> keys;
        for (const auto& [key, result] : last_cold_) {
            keys.push_back(key);
            sim.add_result(result);
            const std::size_t slash = key.find('/');
            const mir::Module m =
                workloads::workload(key.substr(0, slash)).build();
            sim.add("text_bytes",
                    static_cast<double>(
                        compiler::compile(m, scheme_of(key.substr(slash + 1)))
                            .program.code().size() *
                        4));
        }
        set_sim_fences(report, sim, 0, 0);
        report.instret_per_pass = last_instret_;

        const auto pick =
            permutation(keys.size(), exec::derive_seed(args_.seed, 8));
        // The in-process runs use the server's own job definition
        // (GridSpec::jobs), the interpreter runs the reference tier.
        for (std::size_t k = 0; k < kInProcessSample + kInterpSample; ++k) {
            const std::string& key = keys[pick[k]];
            const std::size_t slash = key.find('/');
            serve::GridSpec spec;
            spec.workloads = {key.substr(0, slash)};
            spec.schemes = {key.substr(slash + 1)};
            const bool interp = k >= kInProcessSample;
            const auto& w = workloads::workload(spec.workloads[0]);
            const exec::Job job =
                interp ? exec::make_sim_job(key, w.name,
                                            scheme_of(spec.schemes[0]),
                                            w.build, pin_interp)
                       : spec.jobs().at(0);
            report.check(same_result(job.body(exec::JobContext{}),
                                     last_cold_.at(key)),
                         std::string{interp ? "interp re-run"
                                            : "in-process run"} +
                             " differs from served: " + key);
        }
    }

private:
    static compiler::Scheme scheme_of(const std::string& name)
    {
        for (const compiler::Scheme s : compiler::kAllSchemes)
            if (compiler::scheme_name(s) == name) return s;
        throw std::invalid_argument{"unknown scheme " + name};
    }

    /// Leave an empty result cache for the next set-up's server to open,
    /// untimed, as a deployed server opens an existing cache directory,
    /// and flush the file system: the pass's cache writes and their
    /// removal otherwise leave a journal commit for the server's socket
    /// bind to wait on. Either file-system cost made set-up take 0.2 ms
    /// in some runs and 0.9 ms in others.
    void empty_cache()
    {
        std::filesystem::remove_all(cache_dir_);
        serve::ResultCache{serve::CacheOptions{.root = cache_dir_}};
        const int fd = ::open(cache_dir_.c_str(), O_RDONLY | O_DIRECTORY);
        if (fd >= 0) {
            ::syncfs(fd);
            ::close(fd);
        }
    }

    /// One client's closed loop over its grid plan.
    void drive(unsigned c, Tracer* tracer, std::vector<Delivered>& got,
               std::vector<double>& rt, Calibrator& cal)
    {
        serve::ResilientClient& client = *clients_[c];
        for (const Grid& g : plans_[c]) {
            std::string id;
            const exec::json::Value fin = time_cell(&rt.emplace_back(), cal, [&] {
                exec::json::Value reply;
                {
                    Scope s{tracer, "serve", "ResilientClient::submit"};
                    reply = client.submit(g.spec.to_json());
                }
                id = reply.at("id").as_string();
                if (reply.at("grid_hash").as_string() != g.grid_hash)
                    throw std::runtime_error{"grid " + id +
                                             ": server grid_hash differs"};
                Scope s{tracer, "serve", "ResilientClient::wait"};
                return client.wait(id, nullptr);
            });

            const auto& records = fin.at("records").items();
            if (records.size() != g.keys.size())
                throw std::runtime_error{"grid " + id + " returned " +
                                         std::to_string(records.size()) +
                                         " records"};
            for (std::size_t i = 0; i < records.size(); ++i) {
                auto [key, outcome] = exec::outcome_from_record(records[i]);
                if (key != g.keys[i] ||
                    outcome.status != exec::JobStatus::Ok)
                    throw std::runtime_error{"grid " + id + " cell " +
                                             g.keys[i] + " failed"};
                got.push_back(Delivered{key, g.repeat,
                                        std::move(outcome.result)});
            }
        }
    }

    WorkloadArgs args_;
    exec::Engine engine_{exec::EngineOptions{.jobs = 1}};
    std::vector<Grid> plans_[kClients];
    std::unique_ptr<serve::Server> server_;
    std::unique_ptr<serve::ResilientClient> clients_[kClients];
    std::string base_; ///< path prefix of the socket and the cache
    std::string cache_dir_;
    std::map<std::string, sim::RunResult> last_cold_;
    double last_instret_ = 0;
    std::vector<std::string> messages_;
};

} // namespace

std::unique_ptr<Workload> make_served_campaign(const WorkloadArgs& args)
{
    return std::make_unique<ServedCampaign>(args);
}

} // namespace perfbench
