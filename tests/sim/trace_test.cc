/**
 * @file
 * Unit tests of the event-tracing subsystem.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace.hh"

namespace dramless
{
namespace trace
{
namespace
{

TEST(GlobMatchTest, BasicPatterns)
{
    EXPECT_TRUE(globMatch("", "anything"));
    EXPECT_TRUE(globMatch("*", "pram"));
    EXPECT_TRUE(globMatch("pram", "pram"));
    EXPECT_FALSE(globMatch("pram", "ctrl"));
    EXPECT_TRUE(globMatch("p*m", "pram"));
    EXPECT_TRUE(globMatch("p?am", "pram"));
    EXPECT_FALSE(globMatch("p?m", "pram"));
    EXPECT_TRUE(globMatch("ctrl,pram", "pram"));
    EXPECT_TRUE(globMatch("ctrl,pram", "ctrl"));
    EXPECT_FALSE(globMatch("ctrl,pram", "flash"));
    EXPECT_TRUE(globMatch("*sh", "flash"));
    EXPECT_FALSE(globMatch("*sh", "flashy"));
}

TEST(TracerTest, NoTracerInstalledByDefault)
{
    EXPECT_EQ(current(), nullptr);
}

TEST(TracerTest, ScopedInstallAndRestore)
{
    Tracer t;
    {
        ScopedTracer scope(&t);
        EXPECT_EQ(current(), &t);
        {
            Tracer inner;
            ScopedTracer nested(&inner);
            EXPECT_EQ(current(), &inner);
        }
        EXPECT_EQ(current(), &t);
    }
    EXPECT_EQ(current(), nullptr);
}

TEST(TracerTest, RecordsEventKinds)
{
    Tracer t;
    t.complete(catPram, "mod0", "activate", 100, 200);
    t.instant(catCtrl, "ch0", "enqueue", 150);
    t.counter(catFlash, "fw", "depth", 175, 3.0);
    // A backwards interval clamps to zero length instead of
    // underflowing the duration.
    t.complete(catPram, "mod0", "clamped", 500, 400);
    ASSERT_EQ(t.events().size(), 4u);
    EXPECT_EQ(t.events()[0].ph, Event::Ph::complete);
    EXPECT_EQ(t.events()[0].start, 100u);
    EXPECT_EQ(t.events()[0].end, 200u);
    EXPECT_EQ(t.events()[1].ph, Event::Ph::instant);
    EXPECT_EQ(t.events()[2].ph, Event::Ph::counter);
    EXPECT_DOUBLE_EQ(t.events()[2].value, 3.0);
    EXPECT_EQ(t.events()[3].end, 500u);
}

TEST(TracerTest, FilterDropsOtherCategories)
{
    Tracer t("pram,host");
    EXPECT_TRUE(t.wants(catPram));
    EXPECT_TRUE(t.wants(catHost));
    EXPECT_FALSE(t.wants(catCtrl));
    t.complete(catPram, "m", "a", 0, 1);
    t.complete(catCtrl, "c", "b", 0, 1);
    t.instant(catHost, "h", "c", 2);
    ASSERT_EQ(t.events().size(), 2u);
    EXPECT_STREQ(t.events()[0].category, catPram);
    EXPECT_STREQ(t.events()[1].category, catHost);
}

TEST(SpanTest, EmitsOnDestruction)
{
    Tracer t;
    {
        ScopedTracer scope(&t);
        Span span(catSystem, "sys", "run", 10);
        span.finish(90);
    }
    ASSERT_EQ(t.events().size(), 1u);
    EXPECT_EQ(t.events()[0].start, 10u);
    EXPECT_EQ(t.events()[0].end, 90u);
    EXPECT_STREQ(t.events()[0].name, "run");
}

TEST(SpanTest, NoTracerMeansNoEvent)
{
    Span span(catSystem, "sys", "run", 10);
    span.finish(90);
    // Nothing to assert beyond not crashing: current() is null.
    EXPECT_EQ(current(), nullptr);
}

TEST(ChromeTraceTest, RendersAllPhases)
{
    Tracer t;
    t.complete(catPram, "mod0", "activate", 1000000, 3000000);
    t.instant(catPram, "mod0", "blip", 2000000);
    t.counter(catCtrl, "ch0", "depth", 1500000, 2.0);
    std::ostringstream os;
    writeChromeTrace(os, {{std::string(), t.events()}});
    std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
    // 1e6 ticks (ps) = 1 us; durations convert to Chrome us.
    EXPECT_NE(out.find("\"ts\":1"), std::string::npos);
    EXPECT_NE(out.find("\"dur\":2"), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"activate\""), std::string::npos);
    // Process metadata names both components.
    EXPECT_NE(out.find("\"name\":\"pram\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"ctrl\""), std::string::npos);
}

TEST(ChromeTraceTest, GroupLabelsPrefixProcesses)
{
    Tracer a, b;
    a.complete(catPram, "mod0", "x", 0, 10);
    b.complete(catPram, "mod0", "x", 0, 10);
    std::ostringstream os;
    writeChromeTrace(os, {{"DRAM-less/gemver", a.events()},
                          {"Hetero/doitg", b.events()}});
    std::string out = os.str();
    EXPECT_NE(out.find("DRAM-less/gemver/pram"), std::string::npos);
    EXPECT_NE(out.find("Hetero/doitg/pram"), std::string::npos);
}

TEST(SummaryTest, AggregatesDurationsAndCounters)
{
    Tracer t;
    t.complete(catPram, "mod0", "activate", 0, 2000000);
    t.complete(catPram, "mod0", "activate", 5000000, 6000000);
    t.counter(catCtrl, "ch0", "depth", 0, 2.0);
    t.counter(catCtrl, "ch0", "depth", 10, 5.0);
    t.counter(catCtrl, "ch0", "depth", 20, 1.0);
    std::ostringstream os;
    writeSummary(os, {{std::string(), t.events()}});
    std::string out = os.str();
    EXPECT_NE(out.find("activate"), std::string::npos);
    // 2 us + 1 us of busy time over two events.
    EXPECT_NE(out.find("3.000 us"), std::string::npos);
    // Counter reports its peak level.
    EXPECT_NE(out.find("5.0 peak"), std::string::npos);
}

} // namespace
} // namespace trace
} // namespace dramless
