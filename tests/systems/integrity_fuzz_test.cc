/**
 * @file
 * End-to-end data-integrity oracle for the PRAM subsystem.
 *
 * Randomized read/write traffic is driven through a PramSubsystem
 * with every reliability mechanism enabled at once — Start-Gap wear
 * leveling (frequent gap moves), fault injection with write-verify
 * retries, and spare-pool bad-line remapping — while a shadow model
 * tracks the last completed write to every byte. The oracle: every
 * timed read must return exactly the bytes of the most recent write
 * to its range, and a final functional sweep of the whole region must
 * match the shadow byte for byte. Ten seeds at four and at eight
 * row buffers, fresh subsystem each.
 *
 * The harness never keeps two in-flight requests whose ranges
 * overlap: the hardware orders same-word accesses, but distinct
 * requests to the same line carry no ordering guarantee, so the
 * oracle would be ill-defined.
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

/** Fuzzed region: 64 stripes of 128 B starting at address 0. */
constexpr std::uint64_t kRegionBytes = 64 * 128;
constexpr std::uint32_t kUnit = 32;
constexpr std::uint32_t kOpsPerSeed = 2000;
constexpr std::uint32_t kBatch = 16;

/** Every reliability mechanism on, sized so the fuzz stays fast but
 *  remaps and retries actually happen. */
SubsystemConfig
fuzzConfig(std::uint64_t seed, std::uint32_t row_buffers)
{
    SubsystemConfig cfg;
    cfg.geometry.numRowBuffers = row_buffers;
    cfg.channels = 2;
    cfg.modulesPerChannel = 2;
    cfg.stripeBytes = 128;
    cfg.functional = true;
    cfg.wearLeveling = true;
    cfg.gapMovePeriod = 32; // a gap move every 32 stripe writes
    cfg.reliability.enabled = true;
    cfg.reliability.seed = seed;
    cfg.reliability.writeFailProb = 0.05;   // exercises retries
    cfg.reliability.enduranceWrites = 8;    // lines wear out mid-run
    cfg.reliability.wornWriteFailProb = 0.25;
    cfg.reliability.maxProgramRetries = 3;
    cfg.reliability.spareLines = 64;
    return cfg;
}

/** Parameterized by seed; each test body picks the row-buffer count. */
class IntegrityFuzz : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void fuzz(std::uint32_t row_buffers);
};

void
IntegrityFuzz::fuzz(std::uint32_t row_buffers)
{
    const std::uint64_t seed = GetParam();
    EventQueue eq;
    PramSubsystem sys(eq, fuzzConfig(seed, row_buffers), "pram");
    sys.initialize();

    // Shadow model: byte-accurate expected content of the region.
    std::vector<std::uint8_t> shadow(kRegionBytes, 0);
    sys.functionalWrite(0, shadow.data(), shadow.size());

    struct Pending
    {
        bool isRead = false;
        std::vector<std::uint8_t> buf;      // read destination
        std::vector<std::uint8_t> expected; // shadow at enqueue
    };
    std::map<std::uint64_t, Pending> pending;
    std::uint64_t completed = 0;
    sys.setCallback([&](const MemResponse &resp) {
        auto it = pending.find(resp.id);
        ASSERT_NE(it, pending.end()) << "unknown completion id";
        if (it->second.isRead) {
            EXPECT_EQ(it->second.buf, it->second.expected)
                << "read id " << resp.id
                << " returned stale or corrupt data (seed " << seed
                << ")";
        }
        pending.erase(it);
        ++completed;
    });

    Random rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::uint64_t issued = 0;
    /** In-flight [base, end) ranges; conflicting ops wait for the
     *  batch drain. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> inflight;

    auto overlaps = [&](std::uint64_t base, std::uint64_t end) {
        for (const auto &[b, e] : inflight)
            if (base < e && b < end)
                return true;
        return false;
    };

    while (issued < kOpsPerSeed) {
        // Issue a batch of non-overlapping requests, then drain.
        std::uint32_t in_batch = 0;
        while (in_batch < kBatch && issued < kOpsPerSeed) {
            std::uint32_t size =
                kUnit * std::uint32_t(1 + rng.below(4));
            std::uint64_t base =
                rng.below((kRegionBytes - size) / kUnit + 1) * kUnit;
            if (overlaps(base, base + size))
                break; // conflict: drain what we have first
            MemRequest req;
            req.addr = base;
            req.size = size;
            Pending p;
            if (rng.chance(0.5)) {
                req.kind = ReqKind::write;
                p.buf.resize(size);
                for (auto &b : p.buf)
                    b = std::uint8_t(rng.next());
                req.writeFrom = p.buf.data();
                // The payload is latched at enqueue, so the shadow
                // advances immediately; the no-overlap rule keeps
                // concurrent readers away until the drain.
                std::memcpy(shadow.data() + base, p.buf.data(),
                            size);
            } else {
                req.kind = ReqKind::read;
                p.isRead = true;
                p.buf.assign(size, 0xee);
                p.expected.assign(shadow.begin() + base,
                                  shadow.begin() + base + size);
                req.readInto = p.buf.data();
            }
            if (!sys.canAccept(req))
                break;
            inflight.emplace_back(base, base + size);
            std::uint64_t id = sys.enqueue(req);
            pending[id] = std::move(p);
            ++issued;
            ++in_batch;
        }
        // Every channel controller's invariants hold after each event.
        Tick first_bad = maxTick;
        while (eq.step()) {
            for (std::uint32_t c = 0; c < sys.numChannels(); ++c) {
                if (first_bad == maxTick && !sys.channel(c).selfCheck())
                    first_bad = eq.curTick();
            }
        }
        ASSERT_EQ(first_bad, maxTick) << "selfCheck failed first at this tick";
        ASSERT_TRUE(sys.idle());
        ASSERT_TRUE(pending.empty());
        inflight.clear();
    }

    EXPECT_EQ(completed, kOpsPerSeed);

    // Final sweep: the whole region, through the functional path,
    // must match the shadow byte for byte — gap moves and bad-line
    // migrations must never lose data.
    std::vector<std::uint8_t> out(kRegionBytes, 0);
    sys.functionalRead(0, out.data(), out.size());
    EXPECT_EQ(out, shadow);

    // The run must actually have exercised the machinery it claims
    // to: verify retries (p=0.05 over thousands of word programs)
    // and at least one worn-line remap into the spare pool.
    std::uint64_t retries = 0;
    for (std::uint32_t c = 0; c < sys.numChannels(); ++c)
        retries += sys.channel(c).ctrlStats().verifyRetries;
    EXPECT_GT(retries, 0u) << "fault injection never fired";
    EXPECT_GT(sys.subsystemStats().wearLevelMoves, 0u);
    EXPECT_GE(sys.subsystemStats().badLineRemaps, 1u);
    EXPECT_LT(sys.subsystemStats().spareLinesUsed, 64u)
        << "spare pool nearly exhausted; retune the fuzz config";
}

/** Table II's four RAB/RDB pairs. */
TEST_P(IntegrityFuzz, ReadsReturnLastWrite)
{
    fuzz(4);
}

/** Eight pairs: several RABs may latch the same upper row while only
 *  one RDB holds the row, so a phase skip must claim the RAB it was
 *  evaluated on. */
TEST_P(IntegrityFuzz, ReadsReturnLastWriteWith8RowBuffers)
{
    fuzz(8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrityFuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

} // namespace
} // namespace ctrl
} // namespace dramless
