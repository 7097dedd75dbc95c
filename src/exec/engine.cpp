#include "exec/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "exec/journal.hpp"
#include "exec/process.hpp"
#include "exec/supervisor.hpp"

namespace hwst::exec {

unsigned resolve_jobs(unsigned requested)
{
    if (requested != 0) return requested;
    if (const char* env = std::getenv("HWST_JOBS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0) return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

EngineOptions resolve_engine_options(const EngineOptions& requested)
{
    // HWST_ISOLATE / HWST_SENTINEL opt whole presets into isolation
    // without touching a harness command line, and a nonzero sentinel
    // rate implies isolation (the cross-check needs sibling workers).
    EngineOptions opts = requested;
    if (!opts.isolate)
        opts.isolate = common::env_flag("HWST_ISOLATE").value_or(false);
    if (opts.sentinel == 0) opts.sentinel = sentinel_from_env();
    if (opts.sentinel > 0) opts.isolate = true;
    if (opts.isolate && !isolation_supported())
        throw common::ToolchainError{
            "process isolation (--isolate/--sentinel) requires a POSIX "
            "host"};
    return opts;
}

namespace {

bool stop_requested(const EngineOptions& opts)
{
    return shutdown_requested() ||
           (opts.stop && opts.stop->load(std::memory_order_relaxed));
}

/// One attempt, routed by mode: in-process on this thread, or in a
/// forked worker whose death is contained and classified — plus the
/// sentinel cross-check on sampled successful jobs.
JobOutcome run_attempt(const Job& job, unsigned attempt,
                       const EngineOptions& opts)
{
    const SuperviseOptions supervise{
        .timeout = opts.timeout,
        .grace = opts.grace,
        .heartbeat = opts.heartbeat,
        .rlimit_mb = opts.rlimit_mb,
        .rlimit_cpu_s = opts.rlimit_cpu_s,
        .stop = opts.stop,
    };
    if (opts.isolate && !job.in_process) {
        JobOutcome out = attempt_isolated(job, attempt, supervise);
        if (opts.sentinel > 0 && out.status == JobStatus::Ok &&
            sentinel_sampled(job, opts.sentinel))
            out = sentinel_check(job, attempt, supervise, std::move(out));
        return out;
    }
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (opts.timeout.count() > 0)
        deadline = std::chrono::steady_clock::now() + opts.timeout;
    return attempt_in_process(job, CancelToken{deadline, opts.stop},
                              attempt);
}

/// Interruptible exponential backoff before retry `attempt + 1`.
void backoff_wait(unsigned attempt, const EngineOptions& opts)
{
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        opts.backoff * (1LL << std::min(attempt, 8u)));
    if (remaining > std::chrono::milliseconds{30'000})
        remaining = std::chrono::milliseconds{30'000};
    while (remaining.count() > 0 && !stop_requested(opts)) {
        const auto slice = std::min(remaining, std::chrono::milliseconds{20});
        std::this_thread::sleep_for(slice);
        remaining -= slice;
    }
}

} // namespace

JobOutcome run_one_job(const Job& job, const EngineOptions& opts)
{
    JobOutcome out;
    const unsigned max_attempts = opts.retries + 1;
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        out = run_attempt(job, attempt, opts);
        if (out.status == JobStatus::Ok) break;
        if (stop_requested(opts)) {
            // The "timeout" was the shutdown flag, not a verdict:
            // report Skipped and leave the journal untouched so a
            // --resume re-runs it.
            out.status = JobStatus::Skipped;
            out.error = "cancelled: shutdown requested";
            return out;
        }
        if (attempt + 1 < max_attempts) {
            backoff_wait(attempt, opts);
        } else if (opts.retries > 0) {
            // Exhausted the retry budget: quarantine, so the
            // harness excludes it from aggregates instead of
            // aborting the whole campaign. Crash forensics (and
            // the worker's last error) ride along into the record.
            out.status = JobStatus::Quarantined;
        }
    }
    if (opts.journal && !job.key.empty())
        opts.journal->record(job.key, out);
    // Only a finished verdict is worth serving to other campaigns; a
    // timeout or crash is a fact about this host run, not the cell.
    if (opts.cache && !job.key.empty() && out.status == JobStatus::Ok)
        opts.cache->store(job, out);
    return out;
}

std::vector<JobOutcome> Engine::run(std::span<const Job> jobs,
                                    std::span<const std::size_t> order) const
{
    if (!order.empty()) {
        std::vector<char> seen(jobs.size(), 0);
        const bool permutation =
            order.size() == jobs.size() &&
            std::all_of(order.begin(), order.end(), [&](std::size_t i) {
                return i < jobs.size() && !seen[i]++;
            });
        if (!permutation)
            throw common::ToolchainError{
                "Engine::run: the dispatch order is not a permutation of "
                "the jobs"};
    }
    const EngineOptions opts = resolve_engine_options(opts_);
    std::vector<JobOutcome> outcomes(jobs.size());
    for (auto& o : outcomes) {
        // Overwritten by replay or execution; anything left over was
        // never started (graceful shutdown mid-grid).
        o.status = JobStatus::Skipped;
        o.error = "not started: shutdown requested";
        o.attempts = 0;
    }
    if (jobs.empty()) return outcomes;

    // Replay prepass: jobs already in the checkpoint journal — or with
    // a finished cell in the content-addressed cache — never hit the
    // pool. Serial and deterministic — replayed outcomes land in their
    // grid slots exactly as the original run left them. The journal
    // (this campaign's own record) wins over the cache (any previous
    // campaign's record); a cache hit is re-journaled so a later
    // --resume replays it even with the cache gone.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t n = 0; n < jobs.size(); ++n) {
        const std::size_t i = order.empty() ? n : order[n];
        if (jobs[i].key.empty()) {
            pending.push_back(i);
            continue;
        }
        if (const JobOutcome* rec =
                opts.journal ? opts.journal->find(jobs[i].key) : nullptr) {
            outcomes[i] = *rec;
            outcomes[i].from_journal = true;
            continue;
        }
        std::optional<JobOutcome> hit =
            opts.cache ? opts.cache->load(jobs[i]) : std::nullopt;
        if (hit) {
            outcomes[i] = std::move(*hit);
            outcomes[i].from_cache = true;
            if (opts.journal)
                opts.journal->record(jobs[i].key, outcomes[i]);
            continue;
        }
        pending.push_back(i);
    }

    const unsigned workers = std::max<std::size_t>(
        1, std::min<std::size_t>(resolve_jobs(opts.jobs), pending.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{jobs.size() - pending.size()};
    std::mutex progress_mutex;

    const auto report = [&](const Job& job, const JobOutcome& out) {
        if (!opts.progress) return;
        const std::size_t n = done.fetch_add(1) + 1;
        std::lock_guard lock{progress_mutex};
        std::cerr << "\r[" << n << "/" << jobs.size() << "] " << job.name
                  << " " << job_status_name(out.status) << "      ";
        if (n == jobs.size()) std::cerr << '\n';
        std::cerr.flush();
    };

    const auto worker = [&] {
        for (;;) {
            if (stop_requested(opts)) return;
            const std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size()) return;
            const std::size_t i = pending[slot];
            outcomes[i] = run_one_job(jobs[i], opts);
            report(jobs[i], outcomes[i]);
        }
    };

    if (workers <= 1) {
        // Inline serial path: the reference execution every parallel
        // run must reproduce bit-identically.
        worker();
        return outcomes;
    }

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    return outcomes;
}

} // namespace hwst::exec
