// Span recorder for the traced run (perfbench/README.md, "Tracing").
// The benchmark opens a span around each call it makes into a layer's
// public functions; spans carry a name, a layer, start/end and the span
// that caused them, stay in memory, and are written out as Chrome
// trace-event JSON (opens in Perfetto) when the run ends. A layer's self
// time is its spans' durations minus the part their child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

class Tracer {
public:
    struct Span {
        const char* layer; ///< repo module the call enters (static string)
        const char* name;  ///< public entry point (static string)
        std::uint64_t id;
        std::uint64_t parent; ///< 0 = root
        std::int64_t start_ns;
        std::int64_t end_ns;
        unsigned tid;
    };

    Tracer();

    /// Open a span on the calling thread; its parent is the innermost
    /// span still open on this thread.
    void open(const char* layer, const char* name);
    /// Close the innermost open span of the calling thread.
    void close();

    /// Self time per layer, in seconds, over every recorded span.
    std::map<std::string, double> self_seconds() const;
    /// Inclusive time per span name, in seconds.
    std::map<std::string, double> total_seconds() const;
    std::size_t span_count() const;

    /// Write every span as a trace-event JSON file.
    void write_trace_events(const std::string& path) const;

private:
    struct Open {
        std::uint64_t id;
        std::uint64_t parent;
        const char* layer;
        const char* name;
        std::int64_t start_ns;
    };

    std::int64_t now_ns() const;
    unsigned thread_index();

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::vector<Open>> open_; ///< per thread slot
    std::map<std::size_t, unsigned> tids_;
    std::uint64_t next_id_ = 1;
};

/// RAII span; a null tracer records nothing, so untraced code paths can
/// share the call sites.
class Scope {
public:
    Scope(Tracer* tracer, const char* layer, const char* name)
        : tracer_{tracer}
    {
        if (tracer_) tracer_->open(layer, name);
    }
    ~Scope()
    {
        if (tracer_) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer* tracer_;
};

} // namespace perfbench
