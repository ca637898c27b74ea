/**
 * @file
 * Tests of the open-loop arrival processes: schedule determinism
 * (the property the serving results' reproducibility rests on),
 * statistical sanity of the Poisson and MMPP generators, mix
 * sampling, and config validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "serve/arrival.hh"
#include "sim/ticks.hh"

namespace dramless
{
namespace serve
{
namespace
{

ArrivalConfig
baseConfig()
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 10000.0;
    cfg.numRequests = 2000;
    cfg.seed = 42;
    return cfg;
}

void
expectIdentical(const std::vector<Request> &a,
                const std::vector<Request> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << i;
        EXPECT_EQ(a[i].arrival, b[i].arrival) << i;
        EXPECT_EQ(a[i].workloadIndex, b[i].workloadIndex) << i;
        EXPECT_EQ(a[i].priority, b[i].priority) << i;
    }
}

void
expectWellFormed(const std::vector<Request> &s, std::uint64_t count)
{
    ASSERT_EQ(s.size(), count);
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].id, i);
        if (i > 0) {
            EXPECT_GE(s[i].arrival, s[i - 1].arrival);
        }
    }
}

/** Mean inter-arrival gap in seconds. */
double
meanGapSec(const std::vector<Request> &s)
{
    return toSec(s.back().arrival) / double(s.size());
}

/** Coefficient of variation of the inter-arrival gaps. */
double
gapCv(const std::vector<Request> &s)
{
    std::vector<double> gaps;
    Tick prev = 0;
    for (const Request &r : s) {
        gaps.push_back(toSec(r.arrival - prev));
        prev = r.arrival;
    }
    double mean = 0.0;
    for (double g : gaps)
        mean += g;
    mean /= double(gaps.size());
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= double(gaps.size());
    return std::sqrt(var) / mean;
}

TEST(PoissonArrivalsTest, SameSeedIdenticalSchedule)
{
    auto cfg = baseConfig();
    cfg.mixWeights = {0.6, 0.3, 0.1};
    PoissonArrivals a(cfg), b(cfg);
    auto sa = a.generate();
    expectWellFormed(sa, cfg.numRequests);
    // A second instance with the same config and a repeated call on
    // the same instance both reproduce the schedule bit-identically.
    expectIdentical(sa, b.generate());
    expectIdentical(sa, a.generate());
}

TEST(PoissonArrivalsTest, DifferentSeedDifferentSchedule)
{
    auto cfg = baseConfig();
    PoissonArrivals a(cfg);
    cfg.seed = 43;
    PoissonArrivals b(cfg);
    auto sa = a.generate(), sb = b.generate();
    bool any_diff = false;
    for (std::size_t i = 0; i < sa.size(); ++i)
        any_diff |= sa[i].arrival != sb[i].arrival;
    EXPECT_TRUE(any_diff);
}

TEST(PoissonArrivalsTest, MeanRateMatchesConfig)
{
    auto cfg = baseConfig();
    cfg.numRequests = 20000;
    auto s = PoissonArrivals(cfg).generate();
    // Mean gap must be 1/rate within a loose sampling tolerance.
    EXPECT_NEAR(meanGapSec(s), 1.0 / cfg.ratePerSec,
                0.05 / cfg.ratePerSec);
    // Exponential gaps: coefficient of variation ~ 1.
    EXPECT_NEAR(gapCv(s), 1.0, 0.1);
}

TEST(PoissonArrivalsTest, MixWeightsRespected)
{
    auto cfg = baseConfig();
    cfg.mixWeights = {0.0, 1.0, 0.0};
    for (const Request &r : PoissonArrivals(cfg).generate())
        ASSERT_EQ(r.workloadIndex, 1u);

    cfg.mixWeights = {3.0, 1.0};
    cfg.numRequests = 20000;
    std::uint64_t first = 0;
    for (const Request &r : PoissonArrivals(cfg).generate())
        first += r.workloadIndex == 0 ? 1 : 0;
    EXPECT_NEAR(double(first) / double(cfg.numRequests), 0.75, 0.02);
}

TEST(PoissonArrivalsTest, MixPrioritiesFollowWorkload)
{
    auto cfg = baseConfig();
    cfg.mixWeights = {1.0, 1.0};
    cfg.mixPriorities = {0, 7};
    for (const Request &r : PoissonArrivals(cfg).generate())
        EXPECT_EQ(r.priority, r.workloadIndex == 1 ? 7u : 0u);
}

TEST(MmppArrivalsTest, SameSeedIdenticalSchedule)
{
    auto cfg = baseConfig();
    MmppArrivals::Burst burst;
    MmppArrivals a(cfg, burst), b(cfg, burst);
    auto sa = a.generate();
    expectWellFormed(sa, cfg.numRequests);
    expectIdentical(sa, b.generate());
    expectIdentical(sa, a.generate());
}

TEST(MmppArrivalsTest, BurstierThanPoisson)
{
    auto cfg = baseConfig();
    cfg.numRequests = 20000;
    MmppArrivals::Burst burst;
    burst.burstMultiplier = 10.0;
    auto poisson = PoissonArrivals(cfg).generate();
    auto mmpp = MmppArrivals(cfg, burst).generate();
    // Modulation adds variance on top of the exponential gaps; the
    // burst stream's inter-arrival CV must visibly exceed Poisson's.
    EXPECT_GT(gapCv(mmpp), gapCv(poisson) * 1.1);
}

TEST(ArrivalConfigDeathTest, RejectsInvalidConfigs)
{
    auto bad_rate = baseConfig();
    bad_rate.ratePerSec = 0.0;
    EXPECT_EXIT(PoissonArrivals{bad_rate},
                ::testing::ExitedWithCode(1), "rate must be positive");

    auto empty_mix = baseConfig();
    empty_mix.mixWeights = {};
    EXPECT_EXIT(PoissonArrivals{empty_mix},
                ::testing::ExitedWithCode(1), "non-empty");

    auto negative = baseConfig();
    negative.mixWeights = {1.0, -0.5};
    EXPECT_EXIT(PoissonArrivals{negative},
                ::testing::ExitedWithCode(1), ">= 0");

    auto zero_sum = baseConfig();
    zero_sum.mixWeights = {0.0, 0.0};
    EXPECT_EXIT(PoissonArrivals{zero_sum},
                ::testing::ExitedWithCode(1), "sum > 0");

    auto skewed = baseConfig();
    skewed.mixWeights = {1.0, 1.0};
    skewed.mixPriorities = {1};
    EXPECT_EXIT(PoissonArrivals{skewed},
                ::testing::ExitedWithCode(1), "parallel");

    MmppArrivals::Burst bad_burst;
    bad_burst.burstMultiplier = 0.5;
    EXPECT_EXIT((MmppArrivals{baseConfig(), bad_burst}),
                ::testing::ExitedWithCode(1), ">= 1");
}

} // namespace
} // namespace serve
} // namespace dramless
