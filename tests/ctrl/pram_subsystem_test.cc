/**
 * @file
 * Unit tests of the multi-channel PRAM subsystem facade: striping,
 * completion aggregation, wear leveling and functional integrity.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "ctrl/pram_subsystem.hh"
#include "sim/random.hh"

namespace dramless
{
namespace ctrl
{
namespace
{

/** Small subsystem configuration for fast tests. */
SubsystemConfig
smallConfig()
{
    SubsystemConfig cfg;
    cfg.channels = 2;
    cfg.modulesPerChannel = 2;
    cfg.stripeBytes = 128;
    return cfg;
}

class SubsystemTest : public ::testing::Test
{
  protected:
    std::unique_ptr<PramSubsystem>
    make(const SubsystemConfig &cfg)
    {
        auto sys = std::make_unique<PramSubsystem>(eq, cfg, "pram");
        sys->setCallback([this](const MemResponse &resp) {
            done[resp.id] = resp.completedAt;
        });
        return sys;
    }

    EventQueue eq;
    std::map<std::uint64_t, Tick> done;
};

TEST_F(SubsystemTest, InitializeReportsBootLatency)
{
    SubsystemConfig cfg = smallConfig();
    cfg.bootLatency = fromUs(150);
    auto sys = make(cfg);
    EXPECT_EQ(sys->initialize(), fromUs(150));
}

TEST_F(SubsystemTest, CapacityIsChannelsTimesUsable)
{
    auto sys = make(smallConfig());
    EXPECT_EQ(sys->capacity(), sys->channel(0).capacity() * 2);
}

TEST_F(SubsystemTest, StripesAlternateChannels)
{
    auto sys = make(smallConfig());
    sys->initialize();
    // Two consecutive 128 B stripes land on different channels.
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 0;
    req.size = 128;
    sys->enqueue(req);
    req.addr = 128;
    sys->enqueue(req);
    eq.run();
    EXPECT_EQ(sys->channel(0).ctrlStats().readWords, 4u);
    EXPECT_EQ(sys->channel(1).ctrlStats().readWords, 4u);
}

TEST_F(SubsystemTest, RequestSpanningChannelsCompletesOnce)
{
    auto sys = make(smallConfig());
    sys->initialize();
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 64;       // crosses the 128 B stripe boundary
    req.size = 128;
    std::uint64_t id = sys->enqueue(req);
    eq.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done.count(id));
    EXPECT_TRUE(sys->idle());
}

TEST_F(SubsystemTest, FunctionalRoundTripAcrossStripes)
{
    auto sys = make(smallConfig());
    std::vector<std::uint8_t> data(1024);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i ^ (i >> 3));
    sys->functionalWrite(100 * 32, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size(), 0);
    sys->functionalRead(100 * 32, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(SubsystemTest, TimedWriteReadBackAcrossChannels)
{
    auto sys = make(smallConfig());
    sys->initialize();
    std::vector<std::uint8_t> data(512);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(3 * i + 1);
    MemRequest wr;
    wr.kind = ReqKind::write;
    wr.addr = 0;
    wr.size = std::uint32_t(data.size());
    wr.writeFrom = data.data();
    sys->enqueue(wr);
    eq.run();
    std::vector<std::uint8_t> out(data.size(), 0);
    MemRequest rd;
    rd.kind = ReqKind::read;
    rd.addr = 0;
    rd.size = std::uint32_t(out.size());
    rd.readInto = out.data();
    sys->enqueue(rd);
    eq.run();
    EXPECT_EQ(out, data);
}

TEST_F(SubsystemTest, HintsReachTheRightChannels)
{
    auto sys = make(smallConfig());
    sys->initialize();
    sys->hintFutureWrite(0, 256); // one stripe per channel
    eq.run();                     // zero-fills execute while idle
    EXPECT_EQ(sys->channel(0).ctrlStats().zeroFillPrograms, 4u);
    EXPECT_EQ(sys->channel(1).ctrlStats().zeroFillPrograms, 4u);
}

TEST_F(SubsystemTest, StatsAggregateBytes)
{
    auto sys = make(smallConfig());
    sys->initialize();
    MemRequest req;
    req.kind = ReqKind::write;
    req.addr = 0;
    req.size = 256;
    sys->enqueue(req);
    req.kind = ReqKind::read;
    sys->enqueue(req);
    eq.run();
    EXPECT_EQ(sys->subsystemStats().bytesWritten, 256u);
    EXPECT_EQ(sys->subsystemStats().bytesRead, 256u);
    EXPECT_EQ(sys->subsystemStats().readRequests, 1u);
    EXPECT_EQ(sys->subsystemStats().writeRequests, 1u);
}

TEST_F(SubsystemTest, WearLevelingPreservesDataAcrossGapMoves)
{
    SubsystemConfig cfg = smallConfig();
    cfg.wearLeveling = true;
    cfg.gapMovePeriod = 3;
    auto sys = make(cfg);
    sys->initialize();

    Random rng(11);
    constexpr std::uint64_t stripes = 32;
    std::vector<std::uint8_t> shadow(stripes * 128, 0);
    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < 120; ++i) {
        std::uint64_t s = rng.below(stripes);
        bufs.emplace_back(128);
        for (auto &b : bufs.back())
            b = std::uint8_t(rng.next());
        std::memcpy(shadow.data() + s * 128, bufs.back().data(), 128);
        MemRequest wr;
        wr.kind = ReqKind::write;
        wr.addr = s * 128;
        wr.size = 128;
        wr.writeFrom = bufs.back().data();
        sys->enqueue(wr);
        eq.run();
    }
    ASSERT_NE(sys->wearLeveler(), nullptr);
    EXPECT_EQ(sys->wearLeveler()->gapMoves(), 40u);
    EXPECT_EQ(sys->subsystemStats().wearLevelMoves, 40u);

    std::vector<std::uint8_t> out(shadow.size(), 0);
    sys->functionalRead(0, out.data(), out.size());
    EXPECT_EQ(out, shadow);
}

TEST_F(SubsystemTest, WearLevelingShrinksCapacityByOneStripe)
{
    SubsystemConfig plain = smallConfig();
    auto a = make(plain);
    SubsystemConfig wl = smallConfig();
    wl.wearLeveling = true;
    EventQueue eq2;
    PramSubsystem b(eq2, wl, "wl");
    EXPECT_EQ(b.capacity(), a->capacity() - wl.stripeBytes);
}

TEST_F(SubsystemTest, DeathOnOversizedRequest)
{
    auto sys = make(smallConfig());
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = sys->capacity() - 32;
    req.size = 64;
    EXPECT_DEATH(sys->enqueue(req), "beyond subsystem capacity");
}

TEST_F(SubsystemTest, DeathOnHintBeyondCapacity)
{
    // With spare lines reserved, the stripes past the end are spares.
    SubsystemConfig cfg = smallConfig();
    cfg.reliability.enabled = true;
    auto sys = make(cfg);
    EXPECT_DEATH(sys->hintFutureWrite(sys->capacity() - 512, 4096 + 512),
                 "hint beyond subsystem capacity");
}

} // namespace
} // namespace ctrl
} // namespace dramless
