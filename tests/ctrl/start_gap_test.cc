/**
 * @file
 * Unit and property tests of Start-Gap wear leveling.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "ctrl/start_gap.hh"
#include "sim/random.hh"

namespace dramless
{
namespace ctrl
{
namespace
{

TEST(StartGapTest, InitialMappingIsIdentity)
{
    StartGapMapper sg(8);
    for (std::uint64_t la = 0; la < 8; ++la)
        EXPECT_EQ(sg.map(la), la);
    EXPECT_EQ(sg.numPhysicalLines(), 9u);
}

TEST(StartGapTest, MappingStaysInjective)
{
    StartGapMapper sg(16, 1); // move on every write
    for (int round = 0; round < 200; ++round) {
        std::set<std::uint64_t> used;
        for (std::uint64_t la = 0; la < 16; ++la) {
            std::uint64_t pa = sg.map(la);
            EXPECT_LT(pa, sg.numPhysicalLines());
            EXPECT_TRUE(used.insert(pa).second)
                << "collision after " << round << " moves";
        }
        sg.recordWrite();
    }
}

TEST(StartGapTest, GapMovePeriodRespected)
{
    StartGapMapper sg(8, 5);
    int moves = 0;
    for (int i = 0; i < 50; ++i)
        moves += sg.recordWrite() ? 1 : 0;
    EXPECT_EQ(moves, 10);
    EXPECT_EQ(sg.gapMoves(), 10u);
    EXPECT_EQ(sg.writeCount(), 50u);
}

TEST(StartGapTest, GapMoveWritesCountedButNeverFeedThePeriod)
{
    // Gap-move copies wear the media like demand writes, but they
    // must not advance the gap-move counter themselves — otherwise
    // the rotation would self-accelerate. 120 demand writes at
    // period 3 is exactly 40 moves, no more.
    StartGapMapper sg(8, 3);
    for (int i = 0; i < 120; ++i)
        sg.recordWrite();
    EXPECT_EQ(sg.writeCount(), 120u);
    EXPECT_EQ(sg.gapMoves(), 40u);
    EXPECT_EQ(sg.gapMoveWrites(), 40u);
    EXPECT_EQ(sg.totalLineWrites(), 160u);
}

TEST(StartGapTest, DataSurvivesRotationProperty)
{
    // Shadow-model: physical lines hold values; on each gap move we
    // perform the copy the mapper requests, and logical reads must
    // always return what was logically written.
    constexpr std::uint64_t lines = 12;
    StartGapMapper sg(lines, 3);
    std::vector<int> physical(sg.numPhysicalLines(), -1);
    std::map<std::uint64_t, int> logical;

    Random rng(99);
    int next_value = 0;
    for (int step = 0; step < 2000; ++step) {
        std::uint64_t la = rng.below(lines);
        int v = next_value++;
        physical[sg.map(la)] = v;
        logical[la] = v;
        if (sg.recordWrite())
            physical[sg.movedTo()] = physical[sg.movedFrom()];
        // Verify every logical line still reads its last write.
        for (const auto &[l, val] : logical)
            ASSERT_EQ(physical[sg.map(l)], val)
                << "corruption at step " << step << " line " << l;
    }
    EXPECT_GT(sg.gapMoves(), 500u);
}

TEST(StartGapTest, FullRotationReturnsToIdentity)
{
    // After N+1 gap moves the gap is back at the top and Start has
    // advanced once; after N*(N+1) moves the mapping cycles fully.
    constexpr std::uint64_t n = 6;
    StartGapMapper sg(n, 1);
    std::vector<std::uint64_t> initial;
    for (std::uint64_t la = 0; la < n; ++la)
        initial.push_back(sg.map(la));
    for (std::uint64_t i = 0; i < n * (n + 1); ++i)
        sg.recordWrite();
    for (std::uint64_t la = 0; la < n; ++la)
        EXPECT_EQ(sg.map(la), initial[la]);
}

TEST(StartGapTest, WearSpreadsAcrossPhysicalLines)
{
    // Hammer a single logical line; rotation must spread the writes
    // over many distinct physical lines.
    StartGapMapper sg(32, 1);
    std::set<std::uint64_t> touched;
    for (int i = 0; i < 4000; ++i) {
        touched.insert(sg.map(7));
        sg.recordWrite(); // copies modeled elsewhere
    }
    EXPECT_GT(touched.size(), 30u);
}

TEST(StartGapTest, BijectionAndGapCoverageProperty)
{
    // Across well over 2*N*period writes: map() must stay a bijection
    // from the N logical lines onto the N+1 physical lines minus the
    // current gap; every reported move must name valid physical lines
    // with movedTo() being the previous gap; and the rotation must
    // eventually park the gap on every physical line (including the
    // gapPos == 0 wrap back to the top).
    constexpr std::uint64_t n = 10;
    constexpr std::uint64_t period = 4;
    StartGapMapper sg(n, period);
    const std::uint64_t phys = sg.numPhysicalLines();

    auto gapOf = [&]() {
        // The gap is the one physical line no logical line maps to.
        std::vector<bool> used(phys, false);
        for (std::uint64_t la = 0; la < n; ++la) {
            std::uint64_t pa = sg.map(la);
            EXPECT_LT(pa, phys);
            EXPECT_FALSE(used[pa]) << "map() not injective";
            used[pa] = true;
        }
        std::uint64_t gap = phys;
        for (std::uint64_t pa = 0; pa < phys; ++pa) {
            if (!used[pa]) {
                EXPECT_EQ(gap, phys) << "more than one unmapped line";
                gap = pa;
            }
        }
        EXPECT_LT(gap, phys) << "no gap line left unmapped";
        return gap;
    };

    std::set<std::uint64_t> gap_positions;
    std::uint64_t gap_before = gapOf();
    gap_positions.insert(gap_before);

    const std::uint64_t writes = 3 * n * period * (n + 1);
    for (std::uint64_t w = 0; w < writes; ++w) {
        bool moved = sg.recordWrite();
        std::uint64_t gap_after = gapOf();
        if (moved) {
            EXPECT_LT(sg.movedFrom(), phys);
            EXPECT_LT(sg.movedTo(), phys);
            EXPECT_NE(sg.movedFrom(), sg.movedTo());
            // The old gap received the copy; the source became the
            // new gap (on wrap: from the top physical line).
            EXPECT_EQ(sg.movedTo(), gap_before);
            EXPECT_EQ(sg.movedFrom(), gap_after);
            if (gap_before == 0) {
                EXPECT_EQ(gap_after, phys - 1) << "wrap must jump to top";
            }
        } else {
            EXPECT_EQ(gap_after, gap_before) << "gap moved off-period";
        }
        gap_before = gap_after;
        gap_positions.insert(gap_after);
    }
    EXPECT_EQ(gap_positions.size(), phys)
        << "every physical line must eventually serve as the gap";
}

TEST(StartGapDeathTest, RejectsDegenerateConfigs)
{
    EXPECT_DEATH(StartGapMapper(0), "at least one line");
    EXPECT_DEATH(StartGapMapper(4, 0), "period");
    StartGapMapper sg(4);
    EXPECT_DEATH(sg.map(4), "out of range");
}

} // namespace
} // namespace ctrl
} // namespace dramless
