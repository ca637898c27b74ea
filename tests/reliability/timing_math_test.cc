/**
 * @file
 * Regression tests of the serialization-delay integer math. The old
 * code computed `Tick(double(bytes) / bps * 1e12)`, which truncates:
 * small transfers on fast links cost 0 ticks and large ones silently
 * lose up to a tick. serializationTicks() rounds up in 128-bit
 * integer math; these tests pin the fixed behavior at the helper, at
 * the PCIe link, and at the DRAM backend that both used the broken
 * expression.
 */

#include <gtest/gtest.h>

#include "host/pcie.hh"
#include "sim/ticks.hh"
#include "systems/backends.hh"

namespace dramless
{
namespace
{

TEST(SerializationTicksTest, ZeroBytesIsFree)
{
    EXPECT_EQ(serializationTicks(0, 7.9e9), 0u);
}

TEST(SerializationTicksTest, NonzeroTransferAlwaysCostsATick)
{
    // 1 byte at 2 TB/s is 0.5 ps: the old float math truncated this
    // to 0 ticks, letting tiny transfers ride for free.
    EXPECT_EQ(serializationTicks(1, 2e12), 1u);
    EXPECT_EQ(serializationTicks(1, 1e13), 1u);
}

TEST(SerializationTicksTest, ExactDivisionsStayExact)
{
    // 1 GB/s == 1 byte per ns == 1000 ticks per byte.
    EXPECT_EQ(serializationTicks(1, 1e9), 1000u);
    EXPECT_EQ(serializationTicks(4096, 1e9), 4096u * 1000u);
    // 1 TB/s == 1 tick per byte.
    EXPECT_EQ(serializationTicks(123456789, 1e12), 123456789u);
}

TEST(SerializationTicksTest, RoundsUpNotDown)
{
    // 3 bytes at 2 bytes/sec: 1.5 s must become ceil, not floor.
    EXPECT_EQ(serializationTicks(3, 2.0), Tick(1.5 * tickPerSec));
    // 7.9 GB/s (the PCIe default): 1 byte is ~126.58 ps -> 127.
    EXPECT_EQ(serializationTicks(1, 7.9e9), 127u);
}

TEST(SerializationTicksTest, LargeTransfersDoNotOverflow)
{
    // 1 TiB at 7.9 GB/s ~ 139 s; the 128-bit intermediate must not
    // wrap (bytes * 1e12 alone overflows 64 bits past ~18 MB).
    const std::uint64_t tib = 1ull << 40;
    Tick t = serializationTicks(tib, 7.9e9);
    double expect_sec = double(tib) / 7.9e9;
    EXPECT_NEAR(toSec(t), expect_sec, 1e-9);
}

TEST(PcieRoundingTest, TinyTransferOccupiesTheLink)
{
    EventQueue eq;
    host::PcieConfig cfg;
    cfg.bytesPerSec = 2e12;
    cfg.perTransferLatency = 0;
    host::PcieLink link(eq, cfg, "pcie");
    // Sub-tick payload: must still consume at least one tick of link
    // occupancy instead of truncating to a free transfer.
    Tick done = link.transfer(1);
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(link.pcieStats().busyTicks, 1u);
}

TEST(PcieRoundingTest, BackToBackTransfersSerializeExactly)
{
    EventQueue eq;
    host::PcieConfig cfg;
    cfg.bytesPerSec = 1e9; // 1000 ticks per byte, exact
    cfg.perTransferLatency = fromNs(10);
    host::PcieLink link(eq, cfg, "pcie");
    Tick first = link.transfer(100);
    EXPECT_EQ(first, fromNs(10) + 100u * 1000u);
    Tick second = link.transfer(100);
    EXPECT_EQ(second, 2 * first);
}

TEST(DramBackendRoundingTest, SmallAccessKeepsBandwidthCost)
{
    EventQueue eq;
    systems::DramBackend::Config cfg;
    cfg.bytesPerSec = 2e12;
    Tick completed = 0;
    systems::DramBackend dram(eq, cfg, "dram");
    dram.setCallback(
        [&](const ctrl::MemResponse &r) { completed = r.completedAt; });
    ctrl::MemRequest req;
    req.size = 32;
    dram.enqueue(req);
    eq.run();
    // 32 bytes at 2 TB/s is 16 ps of occupancy on top of the access
    // latency; the old math charged zero transfer time.
    EXPECT_EQ(completed, cfg.accessLatency + 16u);
}

} // namespace
} // namespace dramless
