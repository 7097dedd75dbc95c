#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "compiler/scheme.hpp"
#include "exec/envelope.hpp"
#include "exec/journal.hpp"
#include "exec/report.hpp"
#include "exec/simrun.hpp"
#include "serve/wire.hpp"
#include "workloads/workload.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define HWST_SERVE_POSIX 1
#endif

namespace hwst::serve {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---- GridSpec --------------------------------------------------------

std::string GridSpec::config_desc() const
{
    // Empty when no tweak is set, so an untweaked grid keeps the same
    // fingerprint as the plain grid_fingerprint(jobs) call sites.
    std::string d;
    if (keybuffer) d += " keybuffer=" + std::to_string(keybuffer);
    if (dcache_kib) d += " dcache_kib=" + std::to_string(dcache_kib);
    return d.empty() ? std::string{} : "tweaks:" + d;
}

std::vector<exec::Job> GridSpec::jobs() const
{
    if (workloads.empty() || schemes.empty())
        throw common::ToolchainError{
            "grid needs at least one workload and one scheme"};
    const unsigned kb = keybuffer;
    const unsigned dk = dcache_kib;
    const auto tweak = [kb, dk](sim::MachineConfig& cfg) {
        if (kb) cfg.keybuffer_entries = kb;
        if (dk) cfg.dcache.sets = dk * 1024 / 64 / 4;
    };
    std::vector<exec::Job> out;
    out.reserve(workloads.size() * schemes.size());
    for (const auto& name : workloads) {
        const auto& w = workloads::workload(name); // validates the name
        for (const auto& sname : schemes) {
            compiler::Scheme scheme = compiler::Scheme::None;
            bool found = false;
            for (const compiler::Scheme s : compiler::kAllSchemes) {
                if (compiler::scheme_name(s) == sname) {
                    scheme = s;
                    found = true;
                    break;
                }
            }
            if (!found)
                throw common::ToolchainError{"unknown scheme: " + sname};
            out.push_back(exec::make_sim_job(name + "/" + sname, name,
                                             scheme, w.build, tweak));
        }
    }
    return out;
}

u64 GridSpec::fingerprint() const
{
    return exec::grid_fingerprint(jobs(), 0, config_desc());
}

exec::json::Value GridSpec::to_json() const
{
    exec::json::Value v = exec::json::Value::object();
    v["bench"] = bench;
    exec::json::Value wl = exec::json::Value::array();
    for (const auto& w : workloads) wl.push_back(w);
    v["workloads"] = wl;
    exec::json::Value sc = exec::json::Value::array();
    for (const auto& s : schemes) sc.push_back(s);
    v["schemes"] = sc;
    if (keybuffer) v["keybuffer"] = keybuffer;
    if (dcache_kib) v["dcache_kib"] = dcache_kib;
    return v;
}

GridSpec GridSpec::from_json(const exec::json::Value& v)
{
    GridSpec spec;
    spec.bench = v.at("bench").as_string();
    if (spec.bench.empty())
        throw common::ToolchainError{"grid bench must be non-empty"};
    for (const auto& w : v.at("workloads").items())
        spec.workloads.push_back(w.as_string());
    for (const auto& s : v.at("schemes").items())
        spec.schemes.push_back(s.as_string());
    if (const auto* kb = v.find("keybuffer"))
        spec.keybuffer = static_cast<unsigned>(kb->as_int());
    if (const auto* dk = v.find("dcache_kib"))
        spec.dcache_kib = static_cast<unsigned>(dk->as_int());
    return spec;
}

// ---- Server::Campaign ------------------------------------------------

struct Server::Campaign {
    std::string id;
    GridSpec spec;
    u64 fingerprint = 0;
    std::vector<exec::Job> jobs;
    std::vector<exec::JobOutcome> outcomes;
    std::unique_ptr<CampaignCache> binding; ///< null without a cache
    /// Per-campaign checkpoint journal under the server's state root
    /// (null without --state): every finished cell is appended+fsync'd,
    /// so a SIGKILLed server replays it on --recover exactly like a
    /// local --resume.
    std::unique_ptr<exec::Journal> journal;
    int owner_fd = -1;     ///< submitting connection (per-client caps)
    bool recovered = false; ///< reloaded from the state directory

    mutable std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0; ///< resolved slots (cached + run + skipped)
    std::size_t running = 0;
    std::size_t cached = 0;
    std::size_t quarantined = 0;
    std::size_t failed = 0;
    bool done = false;
    bool drained = false; ///< finalized partial by a graceful stop
};

namespace {

struct Snapshot {
    std::size_t cells = 0;
    std::size_t finished = 0;
    std::size_t running = 0;
    std::size_t cached = 0;
    std::size_t quarantined = 0;
    std::size_t failed = 0;
    bool done = false;
    bool drained = false;

    bool operator==(const Snapshot&) const = default;
};

exec::json::Value error_reply(const std::string& what)
{
    exec::json::Value v = exec::json::Value::object();
    v["ok"] = false;
    v["error"] = what;
    return v;
}

/// The structured backpressure reply: a shed submit names why and when
/// to come back, so a resilient client can sleep instead of guessing.
exec::json::Value overloaded_reply(const char* reason, u64 retry_after_ms,
                                   std::size_t queued)
{
    exec::json::Value v = exec::json::Value::object();
    v["ok"] = false;
    v["error"] = "overloaded";
    v["reason"] = reason;
    v["retry_after_ms"] = retry_after_ms;
    v["queued"] = queued;
    return v;
}

/// Unknown campaign id: recoverable — after a server restart without
/// state the right client move is to resubmit, not to give up.
exec::json::Value unknown_campaign_reply(const std::string& id)
{
    exec::json::Value v = exec::json::Value::object();
    v["ok"] = false;
    v["error"] = "unknown_campaign";
    v["recoverable"] = true;
    v["id"] = id;
    return v;
}

/// Caller holds c.mutex.
Snapshot snapshot_locked(const Server::Campaign& c)
{
    Snapshot s;
    s.cells = c.jobs.size();
    s.finished = c.finished;
    s.running = c.running;
    s.cached = c.cached;
    s.quarantined = c.quarantined;
    s.failed = c.failed;
    s.done = c.done;
    s.drained = c.drained;
    return s;
}

exec::json::Value progress_json(const std::string& id, const Snapshot& s)
{
    exec::json::Value v = exec::json::Value::object();
    v["event"] = "progress";
    v["id"] = id;
    v["submitted"] = s.cells;
    v["running"] = s.running;
    v["finished"] = s.finished;
    v["cached"] = s.cached;
    v["quarantined"] = s.quarantined;
    v["failed"] = s.failed;
    return v;
}

/// Default Skipped slots — what an unstarted cell reports after a
/// drain, and what a recovered journal overwrites.
void reset_outcomes(std::vector<exec::JobOutcome>& outcomes,
                    std::size_t cells)
{
    outcomes.assign(cells, exec::JobOutcome{});
    for (auto& o : outcomes) {
        o.status = exec::JobStatus::Skipped;
        o.error = "not started: shutdown requested";
        o.attempts = 0;
    }
}

std::string state_file(const std::string& root, const std::string& id)
{
    return (fs::path{root} / (id + ".grid.json")).string();
}

std::string journal_file(const std::string& root, const std::string& id)
{
    return (fs::path{root} / (id + ".journal")).string();
}

} // namespace

// ---- Server ----------------------------------------------------------

Server::Server(ServerOptions opts) : opts_{std::move(opts)}
{
    if (!serving_supported())
        throw common::ToolchainError{
            "the campaign server requires a POSIX host"};
    if (opts_.socket_path.empty())
        throw common::ToolchainError{"server needs a socket path"};
    if (opts_.engine.journal)
        throw common::ToolchainError{
            "per-cell engine journals are owned by the server's state "
            "directory, not the submitting client"};
    if (opts_.recover && opts_.state_root.empty())
        throw common::ToolchainError{"--recover needs a --state directory"};
    engine_ = exec::resolve_engine_options(opts_.engine);
    engine_.stop = &stop_flag_;
    engine_.progress = false; // progress goes to clients, not stderr
    if (!opts_.cache_root.empty())
        cache_ = std::make_shared<ResultCache>(CacheOptions{
            .root = opts_.cache_root,
            .max_bytes = opts_.cache_max_bytes,
            .git_rev = exec::build_git_rev(),
        });
    if (!opts_.state_root.empty()) {
        std::error_code ec;
        fs::create_directories(opts_.state_root, ec);
        if (ec)
            throw common::ToolchainError{"cannot create state root " +
                                         opts_.state_root + ": " +
                                         ec.message()};
    }
}

Server::~Server()
{
    stop();
}

void Server::start()
{
#ifdef HWST_SERVE_POSIX
    if (started_) return;
    // Recover before binding: a client that connects the instant the
    // socket exists already sees every resumed campaign.
    if (opts_.recover) recover_campaigns();
    listen_fd_ = listen_unix(opts_.socket_path);
    if (listen_fd_ < 0)
        throw common::ToolchainError{"cannot listen on " +
                                     opts_.socket_path};
    started_ = true;
    const unsigned pool = exec::resolve_jobs(engine_.jobs);
    workers_.reserve(pool);
    for (unsigned t = 0; t < pool; ++t)
        workers_.emplace_back(&Server::worker_loop, this);
    accept_thread_ = std::thread{&Server::accept_loop, this};
#else
    throw common::ToolchainError{"the campaign server requires a POSIX "
                                 "host"};
#endif
}

void Server::stop()
{
#ifdef HWST_SERVE_POSIX
    if (!started_ || stopped_.exchange(true)) return;
    {
        // Set under the queue lock: a worker between its predicate check
        // and its wait would otherwise miss the notify and never wake.
        const std::lock_guard lock{queue_mutex_};
        stop_flag_.store(true);
    }
    queue_cv_.notify_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    // In-flight cells observe the stop flag and drain cooperatively;
    // join before finalizing so no worker writes after a finished
    // event goes out.
    for (auto& t : workers_)
        if (t.joinable()) t.join();
    {
        const std::lock_guard lock{queue_mutex_};
        queue_.clear(); // queued cells keep their default Skipped slots
    }
    {
        const std::lock_guard lock{campaigns_mutex_};
        for (auto& [id, c] : campaigns_) {
            const std::lock_guard clock{c->mutex};
            if (!c->done) {
                c->drained = true;
                c->done = true;
            }
            c->cv.notify_all();
        }
    }
    // Unblock handler threads parked in read(); their pending writes
    // (the finished events above) still go through — bounded by the
    // write deadline, so a stalled reader cannot wedge the drain.
    {
        const std::lock_guard lock{clients_mutex_};
        for (const int fd : client_fds_) ::shutdown(fd, SHUT_RD);
    }
    for (;;) {
        std::thread t;
        {
            const std::lock_guard lock{clients_mutex_};
            if (client_threads_.empty()) break;
            t = std::move(client_threads_.back());
            client_threads_.pop_back();
        }
        if (t.joinable()) t.join();
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());
#endif
}

void Server::accept_loop()
{
#ifdef HWST_SERVE_POSIX
    while (!stop_flag_.load(std::memory_order_relaxed)) {
        ::pollfd p{listen_fd_, POLLIN, 0};
        const int r = ::poll(&p, 1, 100);
        if (r < 0 && errno != EINTR) continue; // transient; keep serving
        if (r <= 0 || !(p.revents & POLLIN)) continue;
        int fd;
        do {
            fd = ::accept(listen_fd_, nullptr, nullptr);
        } while (fd < 0 && errno == EINTR);
        if (fd < 0) continue;
        set_sndbuf(fd, opts_.sndbuf_bytes);
        set_io_timeouts(fd, 0, opts_.write_deadline_ms);
        const std::lock_guard lock{clients_mutex_};
        if (stop_flag_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        client_fds_.insert(fd);
        client_threads_.emplace_back(&Server::handle_client, this, fd);
    }
#endif
}

void Server::worker_loop()
{
    for (;;) {
        std::shared_ptr<Campaign> c;
        std::size_t index = 0;
        {
            std::unique_lock lock{queue_mutex_};
            queue_cv_.wait(lock, [&] {
                return stop_flag_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (stop_flag_.load(std::memory_order_relaxed)) return;
            c = std::move(queue_.front().first);
            index = queue_.front().second;
            queue_.pop_front();
        }
        {
            const std::lock_guard lock{c->mutex};
            ++c->running;
        }
        exec::EngineOptions opts = engine_;
        opts.cache = c->binding.get();
        opts.journal = c->journal.get();
        exec::JobOutcome out = exec::run_one_job(c->jobs[index], opts);
        cells_run_.fetch_add(1, std::memory_order_relaxed);
        {
            const std::lock_guard lock{c->mutex};
            c->outcomes[index] = std::move(out);
            --c->running;
            ++c->finished;
            switch (c->outcomes[index].status) {
            case exec::JobStatus::Quarantined: ++c->quarantined; break;
            case exec::JobStatus::Timeout:
            case exec::JobStatus::Error:
            case exec::JobStatus::Crashed: ++c->failed; break;
            case exec::JobStatus::Skipped:
                // The stop flag cut this cell short: it never ran and
                // was never journaled, so a --recover re-runs it. Keep
                // the slot counted as finished for this (drained) run.
                break;
            default: break;
            }
            if (c->finished == c->jobs.size()) c->done = true;
        }
        c->cv.notify_all();
    }
}

std::shared_ptr<Server::Campaign> Server::find_campaign(
    const std::string& id) const
{
    const std::lock_guard lock{campaigns_mutex_};
    const auto it = campaigns_.find(id);
    return it == campaigns_.end() ? nullptr : it->second;
}

void Server::persist_campaign(const std::shared_ptr<Campaign>& c)
{
    if (opts_.state_root.empty()) return;
    // Atomic publish (write-temp + fsync + rename), mirroring the
    // cache's cell discipline: a crash mid-submit leaves either no
    // state file or a complete one, never a torn spec.
    exec::json::Value v = exec::json::Value::object();
    v["state_version"] = kStateVersion;
    v["id"] = c->id;
    v["bench"] = c->spec.bench;
    v["grid_hash"] = exec::hash_hex(c->fingerprint);
    v["grid"] = c->spec.to_json();
    const std::string final_path = state_file(opts_.state_root, c->id);
    const std::string temp = final_path + ".tmp";
    if (!write_file_synced(temp, v.dump(2) + "\n")) {
        std::cerr << "[serve] cannot persist campaign " << c->id
                  << " (durability degraded)\n";
        return;
    }
    std::error_code ec;
    fs::rename(temp, final_path, ec);
    if (ec) {
        std::cerr << "[serve] cannot publish state for " << c->id << ": "
                  << ec.message() << '\n';
        fs::remove(temp, ec);
        return;
    }
    try {
        c->journal = std::make_unique<exec::Journal>(
            journal_file(opts_.state_root, c->id), c->spec.bench,
            c->fingerprint, /*resume=*/false);
    } catch (const std::exception& e) {
        std::cerr << "[serve] cannot open journal for " << c->id << ": "
                  << e.what() << " (durability degraded)\n";
    }
}

void Server::enqueue_pending(const std::shared_ptr<Campaign>& c,
                             const std::vector<std::size_t>& pending)
{
    if (!pending.empty()) {
        const std::lock_guard lock{queue_mutex_};
        for (const std::size_t i : pending) queue_.emplace_back(c, i);
    }
    queue_cv_.notify_all();
}

void Server::recover_campaigns()
{
    std::error_code ec;
    std::vector<std::string> ids;
    for (const auto& e : fs::directory_iterator{opts_.state_root, ec}) {
        const std::string name = e.path().filename().string();
        constexpr std::string_view kSuffix = ".grid.json";
        if (name.size() > kSuffix.size() &&
            name.ends_with(kSuffix))
            ids.push_back(name.substr(0, name.size() - kSuffix.size()));
    }
    // Numeric id order keeps recovery (and the queue it refills)
    // deterministic regardless of directory enumeration order.
    std::sort(ids.begin(), ids.end(), [](const auto& a, const auto& b) {
        return a.size() != b.size() ? a.size() < b.size() : a < b;
    });
    for (const std::string& id : ids) {
        const std::string path = state_file(opts_.state_root, id);
        try {
            std::ifstream in{path, std::ios::binary};
            std::ostringstream buf;
            buf << in.rdbuf();
            const auto v = exec::json::Value::parse(buf.str());
            if (v.at("state_version").as_int() != kStateVersion)
                throw common::ToolchainError{
                    "unsupported state_version " +
                    std::to_string(v.at("state_version").as_int())};
            auto c = std::make_shared<Campaign>();
            c->id = v.at("id").as_string();
            c->spec = GridSpec::from_json(v.at("grid"));
            c->jobs = c->spec.jobs();
            c->fingerprint =
                exec::grid_fingerprint(c->jobs, 0, c->spec.config_desc());
            if (exec::hash_hex(c->fingerprint) !=
                v.at("grid_hash").as_string())
                throw common::ToolchainError{
                    "grid_hash mismatch (config revision changed since "
                    "this campaign was accepted)"};
            c->recovered = true;
            reset_outcomes(c->outcomes, c->jobs.size());
            if (cache_)
                c->binding = std::make_unique<CampaignCache>(
                    cache_, c->spec.bench, c->fingerprint);
            try {
                c->journal = std::make_unique<exec::Journal>(
                    journal_file(opts_.state_root, c->id), c->spec.bench,
                    c->fingerprint, /*resume=*/true);
            } catch (const std::exception& je) {
                std::cerr << "[serve] " << c->id
                          << ": journal unusable (" << je.what()
                          << "); re-running all cells\n";
            }
            // Replay finished cells through the same journal machinery
            // --resume uses; the rest re-queue in grid order.
            std::vector<std::size_t> pending;
            {
                const std::lock_guard lock{c->mutex};
                for (std::size_t i = 0; i < c->jobs.size(); ++i) {
                    const exec::JobOutcome* rec =
                        c->journal ? c->journal->find(c->jobs[i].key)
                                   : nullptr;
                    if (rec) {
                        c->outcomes[i] = *rec;
                        c->outcomes[i].from_journal = true;
                        ++c->finished;
                        cells_replayed_.fetch_add(
                            1, std::memory_order_relaxed);
                        continue;
                    }
                    pending.push_back(i);
                }
                if (c->finished == c->jobs.size()) c->done = true;
            }
            {
                const std::lock_guard lock{campaigns_mutex_};
                campaigns_[c->id] = c;
                // Ids are "c<N>": keep allocating above the recovered
                // ones so a new submit can never collide.
                if (c->id.size() > 1 && c->id[0] == 'c') {
                    const u64 n =
                        std::strtoull(c->id.c_str() + 1, nullptr, 10);
                    next_id_ = std::max(next_id_, n);
                }
            }
            cells_total_.fetch_add(c->jobs.size(),
                                   std::memory_order_relaxed);
            campaigns_recovered_.fetch_add(1, std::memory_order_relaxed);
            enqueue_pending(c, pending);
            std::cerr << "[serve] recovered " << c->id << ": "
                      << (c->jobs.size() - pending.size()) << "/"
                      << c->jobs.size() << " cells from journal\n";
        } catch (const std::exception& e) {
            // One unrecoverable campaign must not take recovery down.
            std::cerr << "[serve] cannot recover " << path << ": "
                      << e.what() << '\n';
        }
    }
    // Publishers SIGKILLed mid-cell leave temps behind; recovery is the
    // safe moment to sweep them (no worker is running yet).
    if (cache_) {
        const std::size_t swept = cache_->sweep_dangling_temps();
        if (swept)
            std::cerr << "[serve] swept " << swept
                      << " dangling cache temp(s)\n";
    }
}

exec::json::Value Server::handle_submit(const exec::json::Value& req,
                                        int client_fd)
{
    auto c = std::make_shared<Campaign>();
    try {
        c->spec = GridSpec::from_json(req.at("grid"));
        c->jobs = c->spec.jobs();
    } catch (const std::exception& e) {
        return error_reply(e.what());
    }
    c->fingerprint =
        exec::grid_fingerprint(c->jobs, 0, c->spec.config_desc());
    c->owner_fd = client_fd;

    // Idempotent resubmission: a client that lost the connection after
    // a submit retries with {"dedup":true}; an in-flight campaign for
    // the same (bench, grid_hash) is answered instead of double-run.
    const auto* dedup = req.find("dedup");
    if (dedup && dedup->as_bool()) {
        const std::lock_guard lock{campaigns_mutex_};
        for (const auto& [id, existing] : campaigns_) {
            if (existing->spec.bench != c->spec.bench ||
                existing->fingerprint != c->fingerprint)
                continue;
            std::size_t cached;
            {
                const std::lock_guard clock{existing->mutex};
                if (existing->done) continue; // finished: cache serves it
                cached = existing->cached;
            }
            submits_deduped_.fetch_add(1, std::memory_order_relaxed);
            exec::json::Value v = exec::json::Value::object();
            v["ok"] = true;
            v["id"] = existing->id;
            v["bench"] = existing->spec.bench;
            v["grid_hash"] = exec::hash_hex(existing->fingerprint);
            v["cells"] = existing->jobs.size();
            v["cached"] = cached;
            v["deduped"] = true;
            return v;
        }
    }

    // Admission control: shed before any state is created. The backlog
    // bound is on cells already queued, so one client's grid is always
    // admissible on an idle server no matter its size.
    const unsigned pool = exec::resolve_jobs(engine_.jobs);
    std::size_t backlog;
    {
        const std::lock_guard lock{queue_mutex_};
        backlog = queue_.size();
    }
    const u64 retry_after = std::clamp<u64>(
        100 * (1 + backlog / std::max(1u, pool)), 100, 10'000);
    if (opts_.max_queued_cells != 0 && backlog >= opts_.max_queued_cells) {
        submits_overloaded_.fetch_add(1, std::memory_order_relaxed);
        return overloaded_reply("queue", retry_after, backlog);
    }
    if (opts_.max_client_inflight != 0) {
        unsigned inflight = 0;
        const std::lock_guard lock{campaigns_mutex_};
        for (const auto& [id, existing] : campaigns_) {
            if (existing->owner_fd != client_fd) continue;
            const std::lock_guard clock{existing->mutex};
            if (!existing->done) ++inflight;
        }
        if (inflight >= opts_.max_client_inflight) {
            submits_overloaded_.fetch_add(1, std::memory_order_relaxed);
            return overloaded_reply("client_inflight", retry_after,
                                    backlog);
        }
    }

    reset_outcomes(c->outcomes, c->jobs.size());
    if (cache_)
        c->binding = std::make_unique<CampaignCache>(cache_, c->spec.bench,
                                                     c->fingerprint);
    {
        const std::lock_guard lock{campaigns_mutex_};
        c->id = "c" + std::to_string(++next_id_);
        campaigns_[c->id] = c;
    }
    cells_total_.fetch_add(c->jobs.size(), std::memory_order_relaxed);
    // Persist before the first cell can run: once the client holds an
    // accepted id, no crash window can lose the campaign.
    persist_campaign(c);

    // Submission-time cache sweep: cells the store already holds never
    // touch the pool (the prepass role Engine::run's replay loop plays
    // for journals). Hits are re-journaled so a --recover replays them
    // even with the cache gone. The rest queue up FIFO.
    std::vector<std::size_t> pending;
    const bool draining = stop_flag_.load(std::memory_order_relaxed);
    {
        const std::lock_guard lock{c->mutex};
        for (std::size_t i = 0; i < c->jobs.size(); ++i) {
            if (draining) continue;
            std::optional<exec::JobOutcome> hit =
                c->binding ? c->binding->load(c->jobs[i]) : std::nullopt;
            if (hit) {
                c->outcomes[i] = std::move(*hit);
                c->outcomes[i].from_cache = true;
                ++c->finished;
                ++c->cached;
                cells_cached_.fetch_add(1, std::memory_order_relaxed);
                if (c->journal)
                    c->journal->record(c->jobs[i].key, c->outcomes[i]);
                continue;
            }
            pending.push_back(i);
        }
        if (draining) c->drained = true;
        if (c->finished == c->jobs.size() || draining) c->done = true;
    }
    enqueue_pending(c, pending);

    exec::json::Value v = exec::json::Value::object();
    v["ok"] = true;
    v["id"] = c->id;
    v["bench"] = c->spec.bench;
    v["grid_hash"] = exec::hash_hex(c->fingerprint);
    v["cells"] = c->jobs.size();
    {
        const std::lock_guard lock{c->mutex};
        v["cached"] = c->cached;
    }
    v["deduped"] = false;
    return v;
}

exec::json::Value Server::handle_poll(const exec::json::Value& req) const
{
    const std::string id = req.at("id").as_string();
    const auto c = find_campaign(id);
    if (!c) return unknown_campaign_reply(id);
    Snapshot s;
    {
        const std::lock_guard lock{c->mutex};
        s = snapshot_locked(*c);
    }
    exec::json::Value v = exec::json::Value::object();
    v["ok"] = true;
    v["id"] = c->id;
    v["state"] = s.done ? "done" : "running";
    v["submitted"] = s.cells;
    v["running"] = s.running;
    v["finished"] = s.finished;
    v["cached"] = s.cached;
    v["quarantined"] = s.quarantined;
    v["failed"] = s.failed;
    v["drained"] = s.drained;
    v["recovered"] = c->recovered;
    return v;
}

bool Server::handle_wait(int fd, const exec::json::Value& req)
{
    const std::string id = req.at("id").as_string();
    const auto c = find_campaign(id);
    if (!c) return send_line(fd, unknown_campaign_reply(id));

    const auto send_or_account = [&](const exec::json::Value& v) {
        if (send_line(fd, v)) return true;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            slow_client_drops_.fetch_add(1, std::memory_order_relaxed);
        return false;
    };

    Snapshot prev;
    bool first = true;
    unsigned idle_ticks = 0;
    std::unique_lock lock{c->mutex};
    for (;;) {
        const Snapshot s = snapshot_locked(*c);
        lock.unlock();
        // Never hold the campaign mutex across a socket write: a slow
        // client must not stall the workers resolving its cells. A
        // keepalive progress event goes out every ~1s even when nothing
        // changed, so a client read deadline distinguishes a slow cell
        // from a dead server.
        if (first || !(s == prev) || ++idle_ticks >= 5) {
            if (!send_or_account(progress_json(c->id, s))) return false;
            prev = s;
            first = false;
            idle_ticks = 0;
        }
        if (s.done) break;
        lock.lock();
        c->cv.wait_for(lock, 200ms);
    }

    exec::json::Value v = exec::json::Value::object();
    v["event"] = "finished";
    v["id"] = c->id;
    v["bench"] = c->spec.bench;
    v["grid_hash"] = exec::hash_hex(c->fingerprint);
    v["cells"] = c->jobs.size();
    {
        std::lock_guard relock{c->mutex};
        v["cached"] = c->cached;
        v["drained"] = c->drained;
    }
    v["recovered"] = c->recovered;
    // The grid spec rides along so a bare `--wait ID` client (e.g. one
    // re-waiting after a server restart) can rebuild jobs, verify the
    // grid_hash, and write the same envelope a local run would.
    v["grid"] = c->spec.to_json();
    // The campaign is done: outcomes are frozen. One journal-format
    // record per cell, in grid order — the client rebuilds the outcome
    // vector exactly as Engine::run would have returned it.
    v["summary"] = exec::summary_json(c->jobs, c->outcomes);
    exec::json::Value records = exec::json::Value::array();
    for (std::size_t i = 0; i < c->jobs.size(); ++i)
        records.push_back(
            exec::outcome_to_record(c->jobs[i].key, c->outcomes[i]));
    v["records"] = records;
    return send_or_account(v);
}

void Server::handle_client(int fd)
{
#ifdef HWST_SERVE_POSIX
    LineReader reader{fd};
    for (;;) {
        const auto req = reader.read_json();
        if (!req) break;
        try {
            if (!req->is_object() || !req->find("op")) {
                if (!send_line(fd, error_reply("request needs an op")))
                    break;
                continue;
            }
            const std::string op = req->at("op").as_string();
            if (op == "ping") {
                exec::json::Value v = exec::json::Value::object();
                v["ok"] = true;
                v["op"] = "ping";
                v["git_rev"] = exec::build_git_rev();
                if (!send_line(fd, v)) break;
            } else if (op == "stats") {
                if (!send_line(fd, stats_json())) break;
            } else if (op == "submit") {
                if (!send_line(fd, handle_submit(*req, fd))) break;
            } else if (op == "poll") {
                if (!send_line(fd, handle_poll(*req))) break;
            } else if (op == "wait") {
                if (!handle_wait(fd, *req)) break;
            } else {
                if (!send_line(fd, error_reply("unknown op: " + op)))
                    break;
            }
        } catch (const std::exception& e) {
            // A malformed request poisons its reply, never the server.
            if (!send_line(fd, error_reply(e.what()))) break;
        }
    }
    {
        const std::lock_guard lock{clients_mutex_};
        client_fds_.erase(fd);
    }
    ::close(fd);
#else
    (void)fd;
#endif
}

ServerStats Server::stats() const
{
    ServerStats s;
    {
        const std::lock_guard lock{campaigns_mutex_};
        s.campaigns = campaigns_.size();
    }
    {
        const std::lock_guard lock{queue_mutex_};
        s.queued = queue_.size();
    }
    s.cells = cells_total_.load(std::memory_order_relaxed);
    s.cached = cells_cached_.load(std::memory_order_relaxed);
    s.run = cells_run_.load(std::memory_order_relaxed);
    s.recovered = campaigns_recovered_.load(std::memory_order_relaxed);
    s.replayed = cells_replayed_.load(std::memory_order_relaxed);
    s.deduped = submits_deduped_.load(std::memory_order_relaxed);
    s.overloaded = submits_overloaded_.load(std::memory_order_relaxed);
    s.slow_client_drops =
        slow_client_drops_.load(std::memory_order_relaxed);
    return s;
}

exec::json::Value Server::stats_json() const
{
    const ServerStats s = stats();
    exec::json::Value v = exec::json::Value::object();
    v["ok"] = true;
    v["op"] = "stats";
    v["campaigns"] = s.campaigns;
    v["cells"] = s.cells;
    v["cached"] = s.cached;
    v["run"] = s.run;
    v["recovered"] = s.recovered;
    v["replayed"] = s.replayed;
    v["deduped"] = s.deduped;
    v["overloaded"] = s.overloaded;
    v["slow_client_drops"] = s.slow_client_drops;
    v["queued"] = s.queued;
    v["jobs"] = exec::resolve_jobs(engine_.jobs);
    v["state"] = opts_.state_root;
    v["cache"] = cache_ ? cache_->stats_json() : exec::json::Value{};
    return v;
}

} // namespace hwst::serve
