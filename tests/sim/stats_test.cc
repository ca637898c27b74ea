/**
 * @file
 * Unit tests of the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace dramless
{
namespace stats
{
namespace
{

TEST(AverageTest, TracksMeanMinMax)
{
    Average a("a");
    a.sample(1.0);
    a.sample(3.0);
    a.sample(2.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
    EXPECT_EQ(a.count(), 3u);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(AverageTest, EmptyAverageIsZero)
{
    Average a("a");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(HistogramTest, BucketsSamplesLinearly)
{
    Histogram h("h", 0.0, 10.0, 5);
    h.sample(0.0);
    h.sample(1.9);
    h.sample(2.0);
    h.sample(9.9);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.totalSamples(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketLow(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketHigh(1), 4.0);
}

TEST(HistogramTest, UnderflowAndOverflow)
{
    Histogram h("h", 0.0, 10.0, 2);
    h.sample(-1.0);
    h.sample(10.0); // hi bound is inclusive: last bucket, not overflow
    h.sample(100.0, 3);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.totalSamples(), 5u);
}

// Regression: a sample exactly equal to hi used to fall into the
// overflow bin because (hi - lo) / width indexed one past the last
// bucket.
TEST(HistogramTest, BoundarySamplesPinned)
{
    Histogram h("h", 2.0, 12.0, 5); // buckets of width 2
    h.sample(2.0);  // lo: first bucket
    h.sample(4.0);  // interior boundary: opens second bucket
    h.sample(12.0); // hi: last bucket
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    // Values either side of the range still land outside.
    h.sample(std::nextafter(2.0, -1.0));
    h.sample(std::nextafter(12.0, 100.0));
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.totalSamples(), 5u);
}

TEST(HistogramTest, ResetClearsEverything)
{
    Histogram h("h", 0.0, 4.0, 4);
    h.sample(1.0);
    h.sample(-1.0);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);
}

TEST(TimeSeriesTest, RecordsMonotonically)
{
    TimeSeries ts("ipc");
    ts.record(0, 1.0);
    ts.record(10, 2.0);
    ts.record(10, 3.0); // equal ticks are fine
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.mean(), 2.0);
}

TEST(TimeSeriesDeathTest, BackwardsTickPanics)
{
    TimeSeries ts("ipc");
    ts.record(10, 1.0);
    EXPECT_DEATH(ts.record(5, 1.0), "backwards");
}

TEST(TimeSeriesTest, TimeWeightedMeanHoldsValues)
{
    TimeSeries ts("power");
    // 10 W for 10 ticks, then 20 W for 30 ticks.
    ts.record(0, 10.0);
    ts.record(10, 20.0);
    ts.record(40, 0.0);
    EXPECT_NEAR(ts.timeWeightedMean(), (10 * 10 + 20 * 30) / 40.0,
                1e-9);
}

TEST(TimeSeriesTest, TimeWeightedMeanDegenerateCases)
{
    TimeSeries empty("e");
    EXPECT_DOUBLE_EQ(empty.timeWeightedMean(), 0.0);
    TimeSeries one("o");
    one.record(5, 7.0);
    EXPECT_DOUBLE_EQ(one.timeWeightedMean(), 7.0);
}

TEST(TimeSeriesTest, DownsampleAveragesWindows)
{
    TimeSeries ts("t");
    for (Tick i = 0; i < 100; ++i)
        ts.record(i, double(i));
    auto pts = ts.downsample(10);
    ASSERT_EQ(pts.size(), 10u);
    EXPECT_DOUBLE_EQ(pts[0].value, 4.5); // mean of 0..9
    EXPECT_EQ(pts[0].when, 0u);
    EXPECT_DOUBLE_EQ(pts[9].value, 94.5);
}

TEST(TimeSeriesTest, DownsampleNoOpWhenSmall)
{
    TimeSeries ts("t");
    ts.record(0, 1.0);
    ts.record(1, 2.0);
    auto pts = ts.downsample(10);
    EXPECT_EQ(pts.size(), 2u);
}

// Edge pins: max_points == 0 must return the identity series (no
// division by zero), and max_points > size() must not produce empty
// windows — both come back untouched.
TEST(TimeSeriesTest, DownsampleEdgeCases)
{
    TimeSeries ts("t");
    for (Tick i = 0; i < 7; ++i)
        ts.record(i, double(i) * 2.0);

    auto zero = ts.downsample(0);
    ASSERT_EQ(zero.size(), 7u);
    for (std::size_t i = 0; i < zero.size(); ++i) {
        EXPECT_EQ(zero[i].when, Tick(i));
        EXPECT_DOUBLE_EQ(zero[i].value, double(i) * 2.0);
    }

    auto big = ts.downsample(1000);
    ASSERT_EQ(big.size(), 7u);
    EXPECT_DOUBLE_EQ(big[6].value, 12.0);

    TimeSeries empty("e");
    EXPECT_TRUE(empty.downsample(0).empty());
    EXPECT_TRUE(empty.downsample(5).empty());
}

// Regression: NaN used to satisfy neither range guard and index
// straight into the last bucket through a NaN-to-size_t conversion
// (undefined behavior). It now lands in a dedicated counter, outside
// every bucket and outside totalSamples().
TEST(HistogramTest, NanSamplesCountedSeparately)
{
    Histogram h("h", 0.0, 10.0, 5);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::nan(""), 3);
    h.sample(5.0);
    EXPECT_EQ(h.nanCount(), 4u);
    EXPECT_EQ(h.totalSamples(), 1u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucketCount(4), 0u); // the old UB target
    EXPECT_EQ(h.bucketCount(2), 1u);
    h.reset();
    EXPECT_EQ(h.nanCount(), 0u);
}

TEST(HistogramTest, PercentileEmptyAndEdges)
{
    Histogram h("h", 0.0, 10.0, 5);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    // NaN samples alone keep the distribution empty.
    h.sample(std::nan(""));
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    h.sample(-5.0); // underflow mass reports the lower bound
    h.sample(50.0); // overflow mass reports the upper bound
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramDeathTest, PercentileRejectsBadRank)
{
    Histogram h("h", 0.0, 10.0, 5);
    EXPECT_DEATH(h.percentile(-0.1), "0, 1");
    EXPECT_DEATH(h.percentile(1.5), "0, 1");
}

TEST(PercentileExactTest, NearestRankReference)
{
    // Odd count: p50 is the middle element.
    EXPECT_DOUBLE_EQ(percentileExact({3.0, 1.0, 2.0}, 0.5), 2.0);
    // p99 of 1..100 is the 99th smallest.
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(double(i));
    EXPECT_DOUBLE_EQ(percentileExact(v, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentileExact(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileExact(v, 1.0), 100.0);
    // NaNs are dropped, an all-NaN/empty sample has no percentile.
    EXPECT_DOUBLE_EQ(
        percentileExact({std::nan(""), 7.0}, 0.5), 7.0);
    EXPECT_TRUE(std::isnan(percentileExact({}, 0.5)));
    EXPECT_TRUE(std::isnan(percentileExact({std::nan("")}, 0.5)));
}

// The histogram estimate must track the exact sorted-sample
// reference to within one bucket width, including on skewed and
// weighted distributions — the accuracy contract the serving layer's
// tail-latency numbers rely on.
TEST(HistogramTest, PercentileTracksExactReference)
{
    struct Case
    {
        const char *name;
        std::vector<std::pair<double, std::uint64_t>> weighted;
    };
    std::vector<Case> cases;
    // Heavily skewed: 95% tiny values, a long sparse tail.
    Case skew{"skew", {}};
    for (int i = 0; i < 950; ++i)
        skew.weighted.push_back({double(i % 10), 1});
    for (int i = 0; i < 50; ++i)
        skew.weighted.push_back({900.0 + i * 2.0, 1});
    cases.push_back(skew);
    // Weighted bimodal mass.
    cases.push_back(
        {"bimodal", {{10.0, 400}, {800.0, 100}, {990.0, 1}}});
    // Uniform grid.
    Case grid{"grid", {}};
    for (int i = 0; i <= 1000; ++i)
        grid.weighted.push_back({double(i), 1});
    cases.push_back(grid);

    for (const auto &c : cases) {
        Histogram h(c.name, 0.0, 1000.0, 200); // width 5
        std::vector<double> flat;
        for (const auto &[v, w] : c.weighted) {
            h.sample(v, w);
            flat.insert(flat.end(), w, v);
        }
        for (double p : {0.5, 0.9, 0.99, 0.999}) {
            double exact = percentileExact(flat, p);
            EXPECT_NEAR(h.percentile(p), exact, 5.0)
                << c.name << " p=" << p;
        }
    }
}

TEST(GeomeanTest, MatchesClosedForm)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
}

// Regression: an empty sample used to panic the whole process, which
// turned "this sweep found no knee" into a crash at summary time.
// Empty now explicitly reports the 0.0 sentinel (callers decide what
// an empty aggregate means); non-positive values still die.
TEST(GeomeanTest, EmptyInputReturnsZeroSentinel)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(GeomeanDeathTest, RejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
    EXPECT_DEATH(geomean({-2.0}), "positive");
}

} // namespace
} // namespace stats
} // namespace dramless
