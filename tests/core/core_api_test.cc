/**
 * @file
 * Tests of the public API: kernel image pack/unpack round trips and
 * the DramLessAccelerator facade, plus a golden pin of the facade's
 * timed paths.
 *
 * Regenerate the pin with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/core/core_tests \
 *       --gtest_filter='FacadeGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/dramless.hh"
#include "golden_file.hh"
#include "sim/json.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/core/golden"
#endif

namespace dramless
{
namespace core
{
namespace
{

// --------------------------- KernelImage --------------------------

std::vector<KernelSegment>
sampleSegments()
{
    KernelSegment shared;
    shared.name = "shared";
    shared.loadAddress = 0x1000;
    shared.payload.assign(512, 0xAB);
    KernelSegment app0;
    app0.name = "app0";
    app0.loadAddress = 0x20000;
    app0.entryOffset = 0x40;
    app0.payload.resize(2048);
    std::iota(app0.payload.begin(), app0.payload.end(), 0);
    return {shared, app0};
}

TEST(KernelImageTest, PackUnpackRoundTrip)
{
    KernelImage img = KernelImage::pack(sampleSegments());
    EXPECT_GT(img.size(), 2560u); // payloads + metadata
    KernelImage back = KernelImage::unpack(img.bytes());
    ASSERT_EQ(back.segments().size(), 2u);
    EXPECT_EQ(back.segment("shared").payload,
              img.segment("shared").payload);
    EXPECT_EQ(back.segment("app0").loadAddress, 0x20000u);
    EXPECT_EQ(back.segment("app0").entryOffset, 0x40u);
    EXPECT_EQ(back.segment("app0").payload.size(), 2048u);
    EXPECT_EQ(back.segment("app0").payload[100], 100u);
}

TEST(KernelImageTest, MetadataDescribesPerAppAddresses)
{
    // Figure 10: meta holds download addresses for app0..appN and
    // shared code.
    std::vector<KernelSegment> segs;
    for (int i = 0; i < 4; ++i) {
        KernelSegment s;
        s.name = csprintf("app%d", i);
        s.loadAddress = std::uint64_t(i + 1) << 20;
        s.payload.assign(64, std::uint8_t(i));
        segs.push_back(s);
    }
    KernelImage img = KernelImage::pack(segs);
    KernelImage back = KernelImage::unpack(img.bytes());
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(back.segment(csprintf("app%d", i)).loadAddress,
                  std::uint64_t(i + 1) << 20);
    }
}

TEST(KernelImageDeathTest, RejectsCorruptBlobs)
{
    KernelImage img = KernelImage::pack(sampleSegments());
    std::vector<std::uint8_t> bad = img.bytes();
    bad[0] ^= 0xFF; // break the magic
    EXPECT_DEATH(KernelImage::unpack(bad), "magic");
    std::vector<std::uint8_t> truncated(img.bytes().begin(),
                                        img.bytes().begin() + 10);
    EXPECT_DEATH(KernelImage::unpack(truncated), "truncated");
    EXPECT_DEATH(KernelImage::pack({}), "no segments");
    EXPECT_DEATH(img.segment("nosuch"), "no segment");
}

// ----------------------- DramLessAccelerator ----------------------

class FacadeTest : public ::testing::Test
{
  protected:
    static DramLessConfig
    quickConfig()
    {
        setQuiet(true);
        return DramLessConfig{};
    }
};

TEST_F(FacadeTest, ConstructionBootsTheSubsystem)
{
    DramLessAccelerator dl(quickConfig());
    EXPECT_GE(dl.now(), fromUs(150)); // initializer boot latency
    EXPECT_GT(dl.capacity(), 1ull << 30);
}

TEST_F(FacadeTest, WriteReadDataRoundTrip)
{
    DramLessAccelerator dl(quickConfig());
    std::vector<std::uint8_t> data(4096);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 13 + 7);
    Tick before = dl.now();
    dl.writeData(0x10000, data.data(), data.size());
    EXPECT_GT(dl.now(), before); // simulated time advanced
    std::vector<std::uint8_t> out(data.size(), 0);
    dl.readData(0x10000, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(FacadeTest, ReadDataWaitsForThePcieReturn)
{
    DramLessAccelerator dl(quickConfig());
    std::vector<std::uint8_t> data(512, 0x42);
    dl.writeData(0x10000, data.data(), data.size());
    Tick before = dl.now();
    dl.readData(0x10000, data.data(), data.size());
    const host::PcieConfig pcie{};
    EXPECT_GE(dl.now() - before,
              pcie.perTransferLatency +
                  serializationTicks(512, pcie.bytesPerSec));
}

TEST_F(FacadeTest, StageAndFetchAreUntimed)
{
    DramLessAccelerator dl(quickConfig());
    std::vector<std::uint8_t> data(1024, 0x5C);
    Tick before = dl.now();
    dl.stageData(0, data.data(), data.size());
    std::vector<std::uint8_t> out(1024, 0);
    dl.fetchData(0, out.data(), out.size());
    EXPECT_EQ(dl.now(), before);
    EXPECT_EQ(out, data);
}

TEST_F(FacadeTest, OffloadWorkloadRunsToCompletion)
{
    DramLessAccelerator dl(quickConfig());
    auto spec = workload::Polybench::byName("trisolv").scaled(0.03);
    OffloadResult r = dl.offload(spec);
    EXPECT_GT(r.completedAt, r.startedAt);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_FALSE(r.ipc.empty());
}

TEST_F(FacadeTest, OffloadWaitsForTheHostDmaSetup)
{
    // pushData (Figure 10): the host arms the DMA before the image
    // crosses PCIe, so the server's interrupt comes no sooner than
    // the setup, the link latency and the interrupt delivery.
    DramLessAccelerator dl(quickConfig());
    auto spec = workload::Polybench::byName("trisolv").scaled(0.03);
    OffloadResult r = dl.offload(spec);
    const Tick floor = host::StackConfig::conventional().dmaSetup +
                       host::PcieConfig{}.perTransferLatency +
                       accel::AcceleratorConfig{}.hostInterruptLatency;
    EXPECT_GE(dl.accelerator().metrics().interruptAt - r.startedAt,
              floor);
}

TEST_F(FacadeTest, OffloadedImageUnpacksFromPram)
{
    DramLessAccelerator dl(quickConfig());
    auto spec = workload::Polybench::byName("trisolv").scaled(0.02);
    dl.offload(spec);
    KernelImage img = dl.readBackImage();
    EXPECT_EQ(img.segment("shared").payload.size(), 4096u);
    EXPECT_EQ(img.segment("app0").payload[0], 0u);
    EXPECT_EQ(img.segment("app3").payload[0], 3u);
}

TEST_F(FacadeTest, CustomTraceOffload)
{
    DramLessAccelerator dl(quickConfig());
    class TinyTrace : public accel::TraceSource
    {
      public:
        bool
        next(accel::TraceItem &out) override
        {
            if (n_ >= 16)
                return false;
            out = (n_ % 2 == 0)
                      ? accel::TraceItem::computeOf(1000)
                      : accel::TraceItem::loadOf(n_ * 1024, 32);
            ++n_;
            return true;
        }

      private:
        int n_ = 0;
    };
    TinyTrace t0, t1;
    KernelImage img = KernelImage::pack(
        {KernelSegment{"k", 0, 0,
                       std::vector<std::uint8_t>(512, 1)}});
    OffloadResult r = dl.offload(img, {&t0, &t1});
    EXPECT_GT(r.completedAt, 0u);
    EXPECT_EQ(r.instructions, 2u * 8 * 1000);
}

TEST_F(FacadeTest, SequentialOffloadsAccumulateTime)
{
    DramLessAccelerator dl(quickConfig());
    auto spec = workload::Polybench::byName("durbin").scaled(0.02);
    OffloadResult a = dl.offload(spec);
    OffloadResult b = dl.offload(spec);
    EXPECT_GE(b.startedAt, a.completedAt);
    EXPECT_GT(b.completedAt, b.startedAt);
    // Per-offload energy is windowed, not cumulative: the second run
    // of the same kernel must cost about the same as the first (it
    // is cheaper in fact: warmed row buffers, pre-erased outputs).
    EXPECT_GT(b.energy.total(), 0.0);
    EXPECT_LT(b.energy.total(), 1.5 * a.energy.total());
}

TEST_F(FacadeTest, WearLevelingConfigRotatesAddresses)
{
    DramLessConfig cfg = quickConfig();
    cfg.wearLeveling = true;
    DramLessAccelerator dl(cfg);
    std::vector<std::uint8_t> data(512, 0x77);
    for (int i = 0; i < 200; ++i)
        dl.writeData(0, data.data(), data.size());
    ASSERT_NE(dl.pram().wearLeveler(), nullptr);
    EXPECT_GT(dl.pram().wearLeveler()->gapMoves(), 0u);
    // Data remains intact under rotation.
    std::vector<std::uint8_t> out(512, 0);
    dl.fetchData(0, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(FacadeTest, DumpStatsListsComponents)
{
    DramLessAccelerator dl(quickConfig());
    auto spec = workload::Polybench::byName("trisolv").scaled(0.02);
    dl.offload(spec);
    std::ostringstream os;
    dl.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("pram.ch0.readRequests"), std::string::npos);
    EXPECT_NE(out.find("pram.ch1.modules.programs"),
              std::string::npos);
    EXPECT_NE(out.find("mcu.reads"), std::string::npos);
    EXPECT_NE(out.find("accel.pe1.instructions"), std::string::npos);
}

TEST_F(FacadeTest, DeathOnMisalignedAccess)
{
    DramLessAccelerator dl(quickConfig());
    std::uint8_t b[32];
    EXPECT_DEATH(dl.writeData(7, b, 32), "aligned");
    EXPECT_DEATH(dl.readData(0, b, 17), "aligned");
    EXPECT_DEATH(dl.readBackImage(), "no image");
}

TEST_F(FacadeTest, DeathOnZeroByteTransfer)
{
    // Size 0 passes the alignment check; it must be refused there,
    // not reach the PCIe link or the event loop.
    DramLessAccelerator dl(quickConfig());
    std::uint8_t b[32];
    EXPECT_EXIT(dl.writeData(0, b, 0), ::testing::ExitedWithCode(1),
                "writeData of zero bytes");
    EXPECT_EXIT(dl.readData(0, b, 0), ::testing::ExitedWithCode(1),
                "readData of zero bytes");
}

/** Render one offload as stable "label key value" lines. */
void
emitOffload(std::ostringstream &os, const char *label,
            const OffloadResult &r)
{
    auto num = [&](const char *key, double v) {
        os << label << " " << key << " " << json::number(v) << "\n";
    };
    os << label << " started_at " << r.startedAt << "\n";
    os << label << " completed_at " << r.completedAt << "\n";
    os << label << " instructions " << r.instructions << "\n";
    num("energy_host_stack_j", r.energy.hostStack);
    num("energy_pcie_j", r.energy.pcie);
    num("energy_accel_cores_j", r.energy.accelCores);
    num("energy_storage_media_j", r.energy.storageMedia);
    num("energy_controller_j", r.energy.controller);
    num("energy_total_j", r.energy.total());
}

TEST(FacadeGoldenTest, TimedPathsMatchGoldenFile)
{
    setQuiet(true);
    DramLessAccelerator dl;
    std::ostringstream os;
    os << "# Golden DramLessAccelerator facade metrics. Regenerate "
          "with DRAMLESS_UPDATE_GOLDEN=1.\n";
    std::vector<std::uint8_t> data(4096, 0x3C);
    dl.writeData(0x10000, data.data(), data.size());
    os << "write_data done_at " << dl.now() << "\n";
    emitOffload(os, "trisolv",
                dl.offload(workload::Polybench::byName("trisolv")
                               .scaled(0.03)));
    // An input base off the 4 KiB grid moves the output region.
    emitOffload(os, "durbin_at_1m512",
                dl.offload(workload::Polybench::byName("durbin")
                               .scaled(0.02),
                           (1u << 20) + 512));
    expectMatchesGolden(std::string(DRAMLESS_GOLDEN_DIR) +
                            "/facade_metrics.txt",
                        os.str());
}

} // namespace
} // namespace core
} // namespace dramless
