/**
 * @file
 * Parameterized property tests over the NVM media presets: SSD
 * behavioural invariants that must hold for SLC, MLC, TLC, the
 * PRAM-SSD and the page-interface PRAM alike.
 */

#include <gtest/gtest.h>

#include <map>

#include "flash/ssd.hh"

namespace dramless
{
namespace flash
{

// Print a preset as its label. gtest's default byte dump would show
// the label's heap pointer, so every build would discover the
// parameterized cases under new ctest names.
void
PrintTo(const FlashTiming &t, std::ostream *os)
{
    *os << t.label;
}

namespace
{

class MediaParamTest : public ::testing::TestWithParam<FlashTiming>
{
  protected:
    std::unique_ptr<Ssd>
    make()
    {
        SsdConfig cfg;
        cfg.array.media = GetParam();
        cfg.array.channels = 2;
        cfg.array.diesPerChannel = 2;
        cfg.array.blocksPerDie = 32;
        cfg.array.pagesPerBlock = 32;
        cfg.buffer.pageBytes = GetParam().pageBytes;
        cfg.buffer.capacityBytes =
            std::uint64_t(8) * GetParam().pageBytes;
        auto ssd = std::make_unique<Ssd>(eq, cfg, "ssd");
        ssd->setCallback([this](const ctrl::MemResponse &r) {
            done[r.id] = r.completedAt;
        });
        return ssd;
    }

    EventQueue eq;
    std::map<std::uint64_t, Tick> done;
};

TEST_P(MediaParamTest, ColdReadSlowerThanWarmRead)
{
    auto ssd = make();
    std::uint32_t page = GetParam().pageBytes;
    ctrl::MemRequest req;
    req.kind = ctrl::ReqKind::read;
    req.addr = 0;
    req.size = page;
    std::uint64_t cold = ssd->enqueue(req);
    eq.run();
    Tick t0 = eq.curTick();
    std::uint64_t warm = ssd->enqueue(req);
    eq.run();
    EXPECT_GT(done[cold], done[warm] - t0)
        << GetParam().label;
}

TEST_P(MediaParamTest, SubPageWritePaysReadModifyWrite)
{
    auto ssd = make();
    ctrl::MemRequest req;
    req.kind = ctrl::ReqKind::write;
    req.addr = 0;
    req.size = 32; // far below the page size
    ssd->enqueue(req);
    eq.run();
    EXPECT_EQ(ssd->ssdStats().rmwReads, 1u) << GetParam().label;
    EXPECT_GE(ssd->arrayStats().pageReads, 1u);
}

TEST_P(MediaParamTest, FullPageWriteAvoidsRmw)
{
    auto ssd = make();
    ctrl::MemRequest req;
    req.kind = ctrl::ReqKind::write;
    req.addr = 0;
    req.size = GetParam().pageBytes;
    ssd->enqueue(req);
    eq.run();
    EXPECT_EQ(ssd->ssdStats().rmwReads, 0u) << GetParam().label;
}

TEST_P(MediaParamTest, SustainedWritesEventuallyReachTheArray)
{
    auto ssd = make();
    std::uint32_t page = GetParam().pageBytes;
    for (int i = 0; i < 24; ++i) {
        ctrl::MemRequest req;
        req.kind = ctrl::ReqKind::write;
        req.addr = std::uint64_t(i) * page;
        req.size = page;
        ssd->enqueue(req);
    }
    eq.run();
    EXPECT_GT(ssd->arrayStats().pagePrograms, 0u)
        << GetParam().label;
}

TEST_P(MediaParamTest, ReadLatencyOrdersWithMediaSpeed)
{
    // Whatever the media, a cold page read costs at least the media
    // sense latency plus the channel transfer.
    auto ssd = make();
    ctrl::MemRequest req;
    req.kind = ctrl::ReqKind::read;
    req.addr = GetParam().pageBytes; // untouched page
    req.size = GetParam().pageBytes;
    std::uint64_t id = ssd->enqueue(req);
    eq.run();
    EXPECT_GE(done[id], GetParam().readLatency);
}

INSTANTIATE_TEST_SUITE_P(
    AllMedia, MediaParamTest,
    ::testing::Values(FlashTiming::slc(), FlashTiming::mlc(),
                      FlashTiming::tlc(), FlashTiming::optane(),
                      FlashTiming::pagePram()),
    [](const ::testing::TestParamInfo<FlashTiming> &info) {
        std::string label = info.param.label;
        for (auto &c : label) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return label;
    });

} // namespace
} // namespace flash
} // namespace dramless
