#include <gtest/gtest.h>

#include <sstream>

#include "common/bitops.hpp"
#include "common/env.hpp"
#include "common/prng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace hwst::common;

TEST(Bitops, Mask64)
{
    EXPECT_EQ(mask64(0), 0u);
    EXPECT_EQ(mask64(1), 1u);
    EXPECT_EQ(mask64(8), 0xFFu);
    EXPECT_EQ(mask64(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(mask64(64), ~u64{0});
    EXPECT_EQ(mask64(70), ~u64{0});
}

TEST(Bitops, BitsExtract)
{
    EXPECT_EQ(bits(0xDEADBEEF, 0, 8), 0xEFu);
    EXPECT_EQ(bits(0xDEADBEEF, 8, 8), 0xBEu);
    EXPECT_EQ(bits(0xDEADBEEF, 28, 4), 0xDu);
    EXPECT_EQ(bit(0x8, 3), 1u);
    EXPECT_EQ(bit(0x8, 2), 0u);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(sign_extend(0xFF, 8), -1);
    EXPECT_EQ(sign_extend(0x7F, 8), 127);
    EXPECT_EQ(sign_extend(0x800, 12), -2048);
    EXPECT_EQ(sign_extend(0x7FF, 12), 2047);
    EXPECT_EQ(sign_extend(0, 12), 0);
    EXPECT_EQ(sign_extend(0xFFFFFFFF, 32), -1);
}

TEST(Bitops, FitsSigned)
{
    EXPECT_TRUE(fits_signed(2047, 12));
    EXPECT_FALSE(fits_signed(2048, 12));
    EXPECT_TRUE(fits_signed(-2048, 12));
    EXPECT_FALSE(fits_signed(-2049, 12));
    EXPECT_TRUE(fits_signed(INT64_MAX, 64));
}

TEST(Bitops, FitsUnsigned)
{
    EXPECT_TRUE(fits_unsigned(255, 8));
    EXPECT_FALSE(fits_unsigned(256, 8));
    EXPECT_TRUE(fits_unsigned(~u64{0}, 64));
}

TEST(Bitops, Alignment)
{
    EXPECT_EQ(align_up(0, 8), 0u);
    EXPECT_EQ(align_up(1, 8), 8u);
    EXPECT_EQ(align_up(8, 8), 8u);
    EXPECT_EQ(align_up(9, 16), 16u);
    EXPECT_EQ(align_down(15, 8), 8u);
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
}

TEST(Bitops, Clog2)
{
    EXPECT_EQ(clog2(1), 0u);
    EXPECT_EQ(clog2(2), 1u);
    EXPECT_EQ(clog2(3), 2u);
    EXPECT_EQ(clog2(1024), 10u);
    EXPECT_EQ(clog2(1025), 11u);
    EXPECT_EQ(clog2(u64{1} << 38), 38u);
}

TEST(Bitops, NarrowThrowsOnLoss)
{
    EXPECT_EQ(narrow<u8>(u64{200}), 200);
    EXPECT_THROW(narrow<u8>(u64{256}), std::range_error);
    EXPECT_THROW(narrow<u8>(i64{-1}), std::range_error);
    EXPECT_EQ(narrow<i8>(i64{-100}), -100);
}

TEST(Prng, Deterministic)
{
    Xoshiro256 a{123}, b{123};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, SeedChangesStream)
{
    Xoshiro256 a{1}, b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LT(same, 4);
}

TEST(Prng, RangeBounds)
{
    Xoshiro256 rng{7};
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Stats, GeoMean)
{
    const double xs[] = {1.0, 4.0};
    EXPECT_DOUBLE_EQ(geo_mean(xs), 2.0);
    const double bad[] = {1.0, -1.0};
    EXPECT_THROW(geo_mean(bad), std::domain_error);
}

TEST(Stats, EmptyInputIsReported)
{
    const std::span<const double> empty{};
    EXPECT_THROW(mean(empty), std::domain_error);
    EXPECT_THROW(geo_mean(empty), std::domain_error);
    EXPECT_THROW(geo_mean_overhead_pct(empty), std::domain_error);
    EXPECT_THROW(stddev(empty), std::domain_error);
    EXPECT_THROW(percentile(empty, 50.0), std::domain_error);
}

TEST(Stats, Stddev)
{
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(stddev(xs), 2.13809, 1e-5); // sample (n-1) stddev
    const double one[] = {42.0};
    EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(Stats, Percentile)
{
    const double xs[] = {15.0, 20.0, 35.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 15.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 35.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 40.0);
    EXPECT_THROW(percentile(xs, 101.0), std::domain_error);
    const double one[] = {7.0};
    EXPECT_DOUBLE_EQ(percentile(one, 99.0), 7.0);
}

TEST(Stats, GeoMeanOverheadPct)
{
    // 100% and 300% overhead -> ratios 2 and 4 -> geo 2.828 -> 182.8%
    const double ohs[] = {100.0, 300.0};
    EXPECT_NEAR(geo_mean_overhead_pct(ohs), 182.84, 0.01);
}

TEST(Table, AlignsColumns)
{
    TextTable t{{"a", "bb"}};
    t.add_row({"xxx", "y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("xxx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, Fmt)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(100.0, 0), "100");
}

TEST(Env, ParseBoolFlag)
{
    // The shared boolean vocabulary of HWST_ISOLATE / HWST_SENTINEL /
    // HWST_DBT_FAULT: explicit truthy and falsy spellings,
    // case-insensitive; anything else is "not a boolean".
    for (const char* v : {"1", "true", "on", "yes", "TRUE", "On", "YES"})
        EXPECT_EQ(parse_bool_flag(v), std::optional<bool>{true}) << v;
    for (const char* v : {"0", "false", "off", "no", "FALSE", "Off", "NO"})
        EXPECT_EQ(parse_bool_flag(v), std::optional<bool>{false}) << v;
    for (const char* v : {"", "2", "enabled", "y", "offf", " 1"})
        EXPECT_EQ(parse_bool_flag(v), std::nullopt) << v;
}

} // namespace
