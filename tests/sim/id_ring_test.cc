/**
 * @file
 * Unit tests of the id-indexed request ring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "sim/id_ring.hh"
#include "sim/random.hh"

namespace dramless
{
namespace
{

TEST(IdRingTest, InsertFindTake)
{
    IdRing<int> ring("ring");
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.find(1), nullptr);
    ring.insert(1) = 10;
    ring.insert(2) = 20;
    EXPECT_EQ(ring.size(), 2u);
    ASSERT_NE(ring.find(2), nullptr);
    EXPECT_EQ(*ring.find(2), 20);
    EXPECT_EQ(ring.at(1), 10);
    EXPECT_EQ(ring.take(1), 10);
    EXPECT_EQ(ring.find(1), nullptr);
    EXPECT_EQ(ring.find(3), nullptr);
    EXPECT_EQ(ring.take(2), 20);
    EXPECT_TRUE(ring.empty());
}

TEST(IdRingTest, InsertValueInitializesReusedSlots)
{
    IdRing<int> ring("ring");
    for (std::uint64_t id = 1; id <= 100; ++id) {
        EXPECT_EQ(ring.insert(id), 0) << id;
        ring.at(id) = int(id);
        EXPECT_EQ(ring.take(id), int(id));
    }
}

TEST(IdRingTest, LiveIdsSurviveWrapAndDoubling)
{
    // The first ring holds 16 slots. Ids 17..24 wrap onto the slots
    // of the erased ids 1..8 while 9..16 stay live; id 25 then
    // outgrows the window [9, 26) and the ring doubles with wrapped
    // ids in it.
    IdRing<std::uint64_t> ring("ring");
    std::map<std::uint64_t, std::uint64_t> live;
    auto insert = [&](std::uint64_t id) {
        ring.insert(id) = id * 100;
        live[id] = id * 100;
    };
    for (std::uint64_t id = 1; id <= 12; ++id)
        insert(id);
    for (std::uint64_t id = 1; id <= 8; ++id) {
        EXPECT_EQ(ring.take(id), id * 100);
        live.erase(id);
    }
    for (std::uint64_t id = 13; id <= 40; ++id)
        insert(id);
    // Out-of-order erases, newest and middle first; 9 stays live.
    for (std::uint64_t id : {40u, 17u, 24u, 10u, 33u, 25u}) {
        EXPECT_EQ(ring.take(id), id * 100);
        live.erase(id);
    }
    EXPECT_EQ(ring.size(), live.size());
    for (std::uint64_t id = 1; id <= 48; ++id) {
        auto it = live.find(id);
        if (it == live.end()) {
            EXPECT_EQ(ring.find(id), nullptr) << id;
        } else {
            ASSERT_NE(ring.find(id), nullptr) << id;
            EXPECT_EQ(*ring.find(id), it->second);
        }
    }
    for (const auto &[id, v] : live)
        EXPECT_EQ(ring.take(id), v);
    EXPECT_TRUE(ring.empty());
}

TEST(IdRingTest, GapsBetweenIdsAreNeverLive)
{
    // Ids that share a counter with traffic the ring does not track
    // (a channel's internal writes) arrive with gaps.
    IdRing<int> ring("ring");
    ring.insert(3) = 3;
    ring.insert(40) = 40;
    ring.insert(41) = 41;
    ring.insert(100) = 100;
    for (std::uint64_t id = 0; id < 120; ++id) {
        const bool live = id == 3 || id == 40 || id == 41 || id == 100;
        EXPECT_EQ(ring.find(id) != nullptr, live) << id;
    }
    EXPECT_EQ(ring.take(40), 40);
    EXPECT_EQ(ring.take(3), 3);
    EXPECT_EQ(ring.find(40), nullptr);
    EXPECT_EQ(ring.at(41), 41);
    EXPECT_EQ(ring.at(100), 100);
    // Once empty, a far-away id starts a fresh window.
    ring.take(41);
    ring.take(100);
    ring.insert(1'000'000) = 7;
    EXPECT_EQ(ring.at(1'000'000), 7);
    EXPECT_EQ(ring.find(100), nullptr);
}

TEST(IdRingTest, DifferentialAgainstMap)
{
    for (std::uint64_t seed : {1u, 9u, 77u}) {
        Random rng(seed);
        IdRing<std::uint64_t> ring("ring");
        std::map<std::uint64_t, std::uint64_t> ref;
        std::uint64_t next = 1;
        for (int step = 0; step < 20000; ++step) {
            if (ref.empty() || rng.uniform() < 0.52) {
                next += 1 + (rng.below(8) == 0 ? rng.below(20) : 0);
                const std::uint64_t v = rng.next();
                ring.insert(next) = v;
                ref[next] = v;
            } else {
                // Mostly the oldest few, sometimes any live id.
                auto it = ref.begin();
                std::advance(it, rng.below(std::min<std::uint64_t>(
                                     ref.size(),
                                     rng.below(4) == 0 ? ref.size() : 4)));
                ASSERT_EQ(ring.take(it->first), it->second);
                ref.erase(it);
            }
            ASSERT_EQ(ring.size(), ref.size());
            const std::uint64_t probe = next - rng.below(64);
            auto it = ref.find(probe);
            if (it == ref.end())
                ASSERT_EQ(ring.find(probe), nullptr) << probe;
            else
                ASSERT_EQ(*ring.find(probe), it->second) << probe;
        }
    }
}

TEST(IdRingDeathTest, AtPanicsOnIdsThatAreNotLive)
{
    IdRing<int> ring("ring");
    EXPECT_DEATH(ring.at(1), "not live");
    ring.insert(1) = 1;
    ring.insert(4) = 4;
    EXPECT_DEATH(ring.at(2), "not live"); // never inserted, in window
    EXPECT_DEATH(ring.at(9), "not live"); // beyond the window
    ring.take(1);
    EXPECT_DEATH(ring.at(1), "not live"); // erased
    EXPECT_DEATH(ring.take(1), "not live");
    EXPECT_DEATH(ring.insert(3), "inserted after");
}

TEST(IdRingDeathTest, PanicsNameTheRing)
{
    IdRing<int> ring("sys.pram.ch1.requests");
    EXPECT_DEATH(ring.at(7),
                 "sys\\.pram\\.ch1\\.requests: id 7 is not live");
    ring.insert(8) = 8;
    EXPECT_DEATH(ring.insert(8),
                 "sys\\.pram\\.ch1\\.requests: id 8 inserted after 8");
}

} // namespace
} // namespace dramless
