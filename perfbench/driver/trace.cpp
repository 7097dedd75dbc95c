#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

double seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer() : origin_{Clock::now()} {}

std::int64_t Tracer::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

unsigned Tracer::thread_index()
{
    const std::size_t key =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto [it, inserted] =
        tids_.try_emplace(key, static_cast<unsigned>(tids_.size() + 1));
    return it->second;
}

void Tracer::open(const char* layer, const char* name)
{
    const std::int64_t start = now_ns();
    std::lock_guard lock{mutex_};
    auto& stack = open_[thread_index()];
    const std::uint64_t id = next_id_++;
    stack.push_back(Open{id, stack.empty() ? 0 : stack.back().id, layer,
                         name, start});
}

void Tracer::close()
{
    const std::int64_t end = now_ns();
    std::lock_guard lock{mutex_};
    const unsigned tid = thread_index();
    auto& stack = open_[tid];
    if (stack.empty()) throw std::logic_error{"Tracer::close without open"};
    const Open o = stack.back();
    stack.pop_back();
    spans_.push_back(
        Span{o.layer, o.name, o.id, o.parent, o.start_ns, end, tid});
}

std::map<std::string, double> Tracer::self_seconds() const
{
    std::lock_guard lock{mutex_};
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : spans_)
        if (s.parent) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
        const auto it = child_ns.find(s.id);
        const std::int64_t self = s.end_ns - s.start_ns -
                                  (it == child_ns.end() ? 0 : it->second);
        out[s.layer] += static_cast<double>(self) * 1e-9;
    }
    return out;
}

std::map<std::string, double> Tracer::total_seconds() const
{
    std::lock_guard lock{mutex_};
    std::map<std::string, double> out;
    for (const Span& s : spans_)
        out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    return out;
}

std::size_t Tracer::span_count() const
{
    std::lock_guard lock{mutex_};
    return spans_.size();
}

void Tracer::write_trace_events(const std::string& path) const
{
    std::lock_guard lock{mutex_};
    std::ofstream os{path};
    if (!os) throw std::runtime_error{"cannot write trace file " + path};
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu}}",
            i ? ",\n" : "", s.name, s.layer, s.tid,
            static_cast<double>(s.start_ns) * 1e-3,
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent));
        os << buf;
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error{"short write on trace file " + path};
}

} // namespace perfbench
