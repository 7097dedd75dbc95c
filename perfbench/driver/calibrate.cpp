#include "calibrate.hpp"

#include <array>
#include <cmath>
#include <cstdint>

#include "common/stats.hpp"

namespace perfbench {

namespace {

/// 256 KiB: resident in L2 once warmed, so what the preceding cell left
/// in the caches costs the kernel almost nothing.
constexpr std::size_t kTableWords = 1u << 16;
constexpr int kSteps = 90'000;

std::array<std::uint32_t, kTableWords>& table()
{
    static std::array<std::uint32_t, kTableWords> t = [] {
        std::array<std::uint32_t, kTableWords> a{};
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return a;
    }();
    return t;
}

} // namespace

double time_kernel()
{
    auto& t = table();
    constexpr std::size_t mask = kTableWords - 1;
    std::uint64_t warm = 0;
    for (std::size_t i = 0; i < kTableWords; i += 16) warm += t[i];

    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull ^ warm, acc = 0;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        switch (x & 7) {
        case 0: acc += t[(x >> 8) & mask]; break;
        case 1: acc ^= x * 3; break;
        case 2: t[(acc >> 5) & mask] += static_cast<std::uint32_t>(x); break;
        case 3: acc = (acc << 1) | (acc >> 63); break;
        case 4: acc -= t[(acc ^ x) & mask]; break;
        case 5: acc += x >> 3; break;
        case 6: acc = (acc & 1) ? acc + 7 : acc ^ 5; break;
        default: acc *= 0x2545F4914F6CDD1Dull; break;
        }
    }
    const double s = seconds_since(t0);
    t[0] ^= static_cast<std::uint32_t>(acc); // keeps the loop live
    return s;
}

void Calibrator::sample()
{
    const double s = time_kernel();
    kernel_s_ += s;
    samples_ms_.push_back(s * 1e3);
    last_ = Clock::now();
    pending_ = false;
}

void Calibrator::cell_done()
{
    pending_ = true;
    if (seconds_since(last_) * 1e3 >= kSampleEveryMs) sample();
}

void Calibrator::close()
{
    if (pending_ || samples_ms_.empty()) sample();
}

double calibration_scale(const std::vector<double>& kernel_ms)
{
    return std::pow(kKernelNominalMs / hwst::common::percentile(kernel_ms, 50.0),
                    kElasticity);
}

} // namespace perfbench
