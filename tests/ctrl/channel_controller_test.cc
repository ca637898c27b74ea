/**
 * @file
 * Unit and behavioural tests of the FPGA channel controller: request
 * latency, phase skipping, scheduler policies, selective erasing,
 * hazards and functional data integrity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "ctrl/channel_controller.hh"
#include "sim/random.hh"

namespace dramless
{
namespace ctrl
{
namespace
{

/** Harness with completion capture. */
class ChannelTest : public ::testing::Test
{
  protected:
    std::unique_ptr<ChannelController>
    make(const SchedulerConfig &cfg, std::uint32_t modules = 4)
    {
        auto ctl = std::make_unique<ChannelController>(
            eq, modules, pram::PramGeometry::paperDefault(),
            pram::PramTiming::paperDefault(), cfg, "ch0");
        ctl->setCallback([this](const MemResponse &resp) {
            done[resp.id] = resp.completedAt;
        });
        return ctl;
    }

    /** Drain all events (including background zero-fills). */
    void
    runAll()
    {
        eq.run();
    }

    EventQueue eq;
    std::map<std::uint64_t, Tick> done;
};

TEST_F(ChannelTest, SingleReadLatencyMatchesThreePhaseSum)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 0;
    req.size = 32;
    std::uint64_t id = ctl->enqueue(req);
    runAll();
    ASSERT_TRUE(done.count(id));
    // pre-active (7.5) + tRCD (80) + RL+tDQSCK (19) + BL16 (40), with
    // command-cycle offsets of one tCK between phases.
    Tick lat = done[id];
    EXPECT_GE(lat, fromNs(140));
    EXPECT_LE(lat, fromNs(160));
    EXPECT_EQ(ctl->ctrlStats().readRequests, 1u);
    EXPECT_EQ(ctl->ctrlStats().readWords, 1u);
}

TEST_F(ChannelTest, WriteIsOverwriteLatencyOnUntouchedWord)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    MemRequest req;
    req.kind = ReqKind::write;
    req.addr = 64;
    req.size = 32;
    std::uint64_t id = ctl->enqueue(req);
    runAll();
    ASSERT_TRUE(done.count(id));
    // Durable completion includes the 18 us RESET+SET overwrite.
    EXPECT_GE(done[id], fromUs(18));
    EXPECT_LE(done[id], fromUs(19));
}

TEST_F(ChannelTest, RepeatedReadHitsRowBuffersAndSkipsPhases)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 128;
    req.size = 32;
    std::uint64_t id1 = ctl->enqueue(req);
    runAll();
    Tick first = done[id1];
    std::uint64_t id2 = ctl->enqueue(req);
    runAll();
    Tick second_lat = done[id2] - first;
    // The second read finds both the RAB and the RDB holding the row:
    // no pre-active, no activate, just the read phase.
    EXPECT_GE(ctl->ctrlStats().preActivesSkipped, 1u);
    EXPECT_GE(ctl->ctrlStats().activatesSkipped, 1u);
    EXPECT_LT(second_lat, fromNs(70));
}

TEST_F(ChannelTest, SteadyStateAllocatesNoFunctionEvents)
{
    // The per-request path through the controller and the PRAM
    // modules must run entirely on persistent MemberEvents: no
    // EventFunctionWrapper (and thus no std::function allocation) may
    // be constructed while traffic flows.
    auto ctl = make(SchedulerConfig::finalConfig());
    Random rng(7);
    const std::uint64_t before = EventFunctionWrapper::constructed();
    for (int i = 0; i < 200; ++i) {
        MemRequest req;
        req.kind = rng.uniform() < 0.5 ? ReqKind::read
                                       : ReqKind::write;
        req.addr = rng.below(1u << 20) * 32;
        req.size = 32;
        ctl->enqueue(req);
        if (i % 16 == 15)
            runAll();
    }
    runAll();
    EXPECT_EQ(EventFunctionWrapper::constructed(), before)
        << "steady-state request path constructed function events";
    EXPECT_EQ(done.size(), 200u);
}

TEST_F(ChannelTest, FunctionalWriteThenTimedReadBack)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    std::vector<std::uint8_t> data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7 + 1);
    ctl->functionalWrite(256, data.data(), data.size());

    std::vector<std::uint8_t> out(64, 0);
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 256;
    req.size = 64;
    req.readInto = out.data();
    ctl->enqueue(req);
    runAll();
    EXPECT_EQ(out, data);
}

TEST_F(ChannelTest, TimedWriteThenTimedReadBack)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    std::vector<std::uint8_t> data(128);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(200 - i);
    MemRequest wr;
    wr.kind = ReqKind::write;
    wr.addr = 1024;
    wr.size = 128;
    wr.writeFrom = data.data();
    ctl->enqueue(wr);

    std::vector<std::uint8_t> out(128, 0);
    MemRequest rd;
    rd.kind = ReqKind::read;
    rd.addr = 1024;
    rd.size = 128;
    rd.readInto = out.data();
    ctl->enqueue(rd); // must observe the older write (RAW hazard)
    runAll();
    EXPECT_EQ(out, data);
}

TEST_F(ChannelTest, WordsSpreadAcrossModules)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 4);
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 0;
    req.size = 4 * 32;
    ctl->enqueue(req);
    runAll();
    for (std::uint32_t m = 0; m < 4; ++m)
        EXPECT_EQ(ctl->module(m).moduleStats().numReadBursts, 1u)
            << "module " << m;
}

TEST_F(ChannelTest, InterleavingOutperformsBareMetalOnPartitionedReads)
{
    // Many reads to the same module, different partitions: the
    // multi-resource aware interleaving overlaps tRCD with bursts.
    auto run_with = [&](const SchedulerConfig &cfg) {
        EventQueue local_eq;
        auto ctl = std::make_unique<ChannelController>(
            local_eq, 1, pram::PramGeometry::paperDefault(),
            pram::PramTiming::paperDefault(), cfg, "ch");
        Tick last = 0;
        ctl->setCallback([&](const MemResponse &resp) {
            last = std::max(last, resp.completedAt);
        });
        for (int i = 0; i < 32; ++i) {
            MemRequest req;
            req.kind = ReqKind::read;
            req.addr = std::uint64_t(i) * 32; // partition i % 16
            req.size = 32;
            ctl->enqueue(req);
        }
        local_eq.run();
        return last;
    };
    Tick bare = run_with(SchedulerConfig::bareMetal());
    Tick inter = run_with(SchedulerConfig::interleavingOnly());
    EXPECT_LT(inter, bare);
    // Section V-A: interleaving hides ~40% of the access latency.
    double gain = double(bare - inter) / double(bare);
    EXPECT_GT(gain, 0.25);
}

TEST_F(ChannelTest, SelectiveErasingTurnsOverwritesIntoSetOnly)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 1);
    // Hint the future write region, then let the controller pre-RESET
    // it while idle.
    ctl->hintFutureWrite(0, 4 * 32);
    runAll();
    EXPECT_EQ(ctl->ctrlStats().zeroFillPrograms, 4u);
    for (std::uint64_t w = 0; w < 4; ++w)
        EXPECT_TRUE(ctl->module(0).wordIsPristine(w));
    // The final zero-fill's cell program may still be in flight (it
    // is busy-state, not an event); let it drain.
    eq.runUntil(ctl->module(0).programBusyUntil());

    // Demand writes now take the 10 us SET-only path.
    Tick start = eq.curTick();
    MemRequest req;
    req.kind = ReqKind::write;
    req.addr = 0;
    req.size = 32;
    std::uint64_t id = ctl->enqueue(req);
    runAll();
    Tick lat = done[id] - start;
    EXPECT_GE(lat, fromUs(10));
    EXPECT_LT(lat, fromUs(12));
    EXPECT_EQ(ctl->module(0).moduleStats().numPristinePrograms, 1u);
}

TEST_F(ChannelTest, ZeroFillCancelledByDemandWrite)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 1);
    ctl->hintFutureWrite(0, 32);
    // The demand write arrives before the controller had any idle
    // time: the hint must be discarded, not applied after the write.
    std::vector<std::uint8_t> data(32, 0xEE);
    MemRequest req;
    req.kind = ReqKind::write;
    req.addr = 0;
    req.size = 32;
    req.writeFrom = data.data();
    ctl->enqueue(req);
    runAll();
    EXPECT_EQ(ctl->ctrlStats().zeroFillPrograms, 0u);
    std::vector<std::uint8_t> out(32, 0);
    ctl->functionalRead(0, out.data(), out.size());
    EXPECT_EQ(out, data);
}

TEST_F(ChannelTest, ZeroFillNeverRunsOnReadData)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 1);
    std::vector<std::uint8_t> data(32, 0x42);
    ctl->functionalWrite(0, data.data(), data.size());
    // A demand read marks the word live before the hint lands.
    MemRequest rd;
    rd.kind = ReqKind::read;
    rd.addr = 0;
    rd.size = 32;
    ctl->enqueue(rd);
    ctl->hintFutureWrite(0, 32);
    runAll();
    std::vector<std::uint8_t> out(32, 0);
    ctl->functionalRead(0, out.data(), out.size());
    EXPECT_EQ(out, data); // still intact
}

TEST_F(ChannelTest, BareMetalServesFifoPerModule)
{
    auto ctl = make(SchedulerConfig::bareMetal(), 1);
    std::vector<std::uint64_t> order;
    ctl->setCallback([&](const MemResponse &resp) {
        order.push_back(resp.id);
    });
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 8; ++i) {
        MemRequest req;
        req.kind = ReqKind::read;
        req.addr = std::uint64_t(i) * 32;
        req.size = 32;
        ids.push_back(ctl->enqueue(req));
    }
    runAll();
    EXPECT_EQ(order, ids);
}

TEST_F(ChannelTest, CanAcceptHonoursQueueLimit)
{
    // Bare-metal forms no gangs, so every word queues on its own
    // module, and admission holds each module to 64 queued words.
    auto ctl = make(SchedulerConfig::bareMetal(), 2);
    MemRequest req;
    req.kind = ReqKind::write;
    req.size = 32;
    for (std::uint64_t i = 0; i < 64; ++i) {
        req.addr = (2 * i + 1) * 32; // odd words live on module 1
        ASSERT_TRUE(ctl->canAccept(req)) << i;
        ctl->enqueue(req);
    }
    EXPECT_FALSE(ctl->canAccept(req));
    req.addr = 0; // module 0 still has room
    EXPECT_TRUE(ctl->canAccept(req));
    // Words 0..4 wrap the channel: modules 0, 1, 0, 1, 0.
    req.size = 5 * 32;
    EXPECT_FALSE(ctl->canAccept(req));
    runAll();
    EXPECT_TRUE(ctl->canAccept(req));
}

TEST_F(ChannelTest, CapacityExcludesOverlayWindow)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 2);
    std::uint64_t module_bytes =
        pram::PramGeometry::paperDefault().moduleBytes();
    EXPECT_LT(ctl->capacity(), 2 * module_bytes);
    EXPECT_GT(ctl->capacity(), 2 * (module_bytes - 4096));
}

TEST_F(ChannelTest, MixedRandomTrafficFunctionalIntegrity)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 4);
    Random rng(2024);
    constexpr std::uint64_t span_words = 64;
    std::vector<std::uint8_t> shadow(span_words * 32, 0);
    ctl->functionalWrite(0, shadow.data(), shadow.size());

    std::vector<std::vector<std::uint8_t>> bufs;
    bufs.reserve(200);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t word = rng.below(span_words);
        std::uint32_t words =
            std::uint32_t(rng.between(1, 4));
        if (word + words > span_words)
            words = std::uint32_t(span_words - word);
        bool is_write = rng.chance(0.5);
        MemRequest req;
        req.addr = word * 32;
        req.size = words * 32;
        if (is_write) {
            bufs.emplace_back(req.size);
            for (auto &b : bufs.back())
                b = std::uint8_t(rng.next());
            std::memcpy(shadow.data() + req.addr,
                        bufs.back().data(), req.size);
            req.kind = ReqKind::write;
            req.writeFrom = bufs.back().data();
        } else {
            req.kind = ReqKind::read;
        }
        ctl->enqueue(req);
        if (i % 10 == 9)
            runAll(); // drain periodically to vary queue depths
    }
    runAll();
    std::vector<std::uint8_t> out(shadow.size(), 0);
    ctl->functionalRead(0, out.data(), out.size());
    EXPECT_EQ(out, shadow);
}

/** Read one 512 B channel-aligned piece of a 16-module channel and
 *  check every module served its word. */
void
readChannelPiece(ChannelController &ctl, EventQueue &eq)
{
    std::vector<std::uint8_t> data(512);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 13 + 5);
    ctl.functionalWrite(0, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size(), 0);
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 0;
    req.size = 512;
    req.readInto = out.data();
    ctl.enqueue(req);
    eq.run();
    EXPECT_EQ(out, data);
    for (std::uint32_t m = 0; m < ctl.numModules(); ++m)
        EXPECT_EQ(ctl.module(m).moduleStats().numReadBursts, 1u)
            << "module " << m;
}

TEST_F(ChannelTest, AlignedChannelPieceFormsOneGangUnderFinal)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 16);
    readChannelPiece(*ctl, eq);
    EXPECT_EQ(ctl->ctrlStats().gangSubOps, 1u);
    EXPECT_EQ(ctl->ctrlStats().gangWords, 16u);
    EXPECT_EQ(ctl->ctrlStats().readWords, 16u);
}

TEST_F(ChannelTest, GangMemberWhoseProgramEndsApartLeavesTheLockstepSet)
{
    // Member 2's all-zero slice programs RESET-only, faster than the
    // other members' overwrites, so its partition and program slot
    // free up before theirs. selfCheck() fails if it stays in the
    // lockstep set meanwhile.
    auto ctl = make(SchedulerConfig::finalConfig());
    std::vector<std::uint8_t> data(4 * 32, 0x5A);
    std::fill_n(data.begin() + 2 * 32, 32, 0);
    MemRequest wr;
    wr.kind = ReqKind::write;
    wr.addr = 0;
    wr.size = 4 * 32;
    wr.writeFrom = data.data();
    ctl->enqueue(wr);
    MemRequest rd = wr;
    rd.kind = ReqKind::read;
    rd.writeFrom = nullptr;
    std::vector<std::uint8_t> out(4 * 32, 0xEE);
    rd.readInto = out.data();
    ctl->enqueue(rd);

    Tick first_bad = maxTick;
    while (eq.step()) {
        if (first_bad == maxTick && !ctl->selfCheck())
            first_bad = eq.curTick();
    }
    EXPECT_EQ(first_bad, maxTick) << "selfCheck failed first at this tick";
    EXPECT_EQ(ctl->ctrlStats().gangSubOps, 2u);
    EXPECT_EQ(ctl->module(2).moduleStats().numResetOnlyPrograms, 1u);
    EXPECT_EQ(out, data);
}

TEST_F(ChannelTest, BareMetalNeverGangs)
{
    // Figure 13's bare-metal bar keeps word-at-a-time timing.
    auto ctl = make(SchedulerConfig::bareMetal(), 16);
    readChannelPiece(*ctl, eq);
    EXPECT_EQ(ctl->ctrlStats().gangSubOps, 0u);
    EXPECT_EQ(ctl->ctrlStats().gangWords, 0u);
    EXPECT_EQ(ctl->ctrlStats().readWords, 16u);
}

/** Hint @p words words from address 0 on a channel whose every
 *  program fails verify, and drain the zero-fills. */
void
failEveryZeroFill(ChannelController &ctl, EventQueue &eq,
                  std::uint64_t words)
{
    reliability::ReliabilityConfig rel;
    rel.enabled = true;
    rel.writeFailProb = 1.0;
    rel.maxProgramRetries = 3;
    ctl.configureReliability(rel, 0);
    ctl.hintFutureWrite(0, words * 32);
    eq.run();
    // A failed pre-RESET leaves its word non-pristine, which is
    // harmless: it is dropped after one attempt, never re-pulsed, and
    // never counted as a failed demand write.
    const ControllerStats &s = ctl.ctrlStats();
    EXPECT_EQ(s.zeroFillPrograms, words);
    EXPECT_EQ(s.zeroFillVerifyDrops, words);
    EXPECT_EQ(s.verifyRetries, 0u);
    EXPECT_EQ(s.verifyFailedWrites, 0u);
    for (std::uint32_t m = 0; m < ctl.numModules(); ++m)
        EXPECT_EQ(ctl.module(m).moduleStats().numVerifyFailures,
                  words / ctl.numModules())
            << "module " << m;
}

TEST_F(ChannelTest, FailedZeroFillIsDroppedWithoutRetry)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 1);
    failEveryZeroFill(*ctl, eq, 2);
    EXPECT_EQ(ctl->ctrlStats().gangSubOps, 0u);
}

TEST_F(ChannelTest, FailedGangZeroFillIsDroppedWithoutRetry)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 4);
    failEveryZeroFill(*ctl, eq, 8);
    EXPECT_EQ(ctl->ctrlStats().gangSubOps, 2u);
    EXPECT_EQ(ctl->ctrlStats().gangWords, 8u);
}

/** Enqueue a one-word write of @p fill to word 0 of @p ctl. */
std::uint64_t
writeWordZero(ChannelController &ctl, std::vector<std::uint8_t> &data,
              std::uint8_t fill)
{
    data.assign(32, fill);
    MemRequest req;
    req.kind = ReqKind::write;
    req.addr = 0;
    req.size = 32;
    req.writeFrom = data.data();
    return ctl.enqueue(req);
}

TEST_F(ChannelTest, ReadWaitsForOlderWritesButNotYoungerOnes)
{
    // Two older writes to the word hold the read back (it returns the
    // second one's data); a younger write to it neither delays the
    // read nor leaks into it.
    Tick alone = 0;
    for (bool younger : {false, true}) {
        EventQueue q;
        ChannelController ctl(q, 1, pram::PramGeometry::paperDefault(),
                              pram::PramTiming::paperDefault(),
                              SchedulerConfig::interleavingOnly(), "ch0");
        std::map<std::uint64_t, Tick> at;
        ctl.setCallback([&](const MemResponse &resp) {
            at[resp.id] = resp.completedAt;
        });
        std::vector<std::uint8_t> a, b, c, out(32, 0);
        writeWordZero(ctl, a, 0x11);
        writeWordZero(ctl, b, 0x22);
        MemRequest rd;
        rd.kind = ReqKind::read;
        rd.addr = 0;
        rd.size = 32;
        rd.readInto = out.data();
        std::uint64_t rid = ctl.enqueue(rd);
        std::uint64_t wid = younger ? writeWordZero(ctl, c, 0x33) : 0;
        q.run();
        EXPECT_EQ(out, b) << "younger write " << younger;
        if (!younger) {
            alone = at[rid];
            continue;
        }
        EXPECT_EQ(at[rid], alone);
        EXPECT_LT(at[rid], at[wid]);
        std::vector<std::uint8_t> final_data(32, 0);
        ctl.functionalRead(0, final_data.data(), final_data.size());
        EXPECT_EQ(final_data, c);
    }
}

TEST_F(ChannelTest, TopWordTouchedBeforeItsHintIsNeverErased)
{
    // The last usable word lives in the do-not-erase set's last page.
    auto ctl = make(SchedulerConfig::finalConfig(), 1);
    const std::uint64_t top = ctl->capacity() - 32;
    std::vector<std::uint8_t> live(64, 0x5A);
    ctl->functionalWrite(top - 32, live.data(), live.size());
    MemRequest rd;
    rd.kind = ReqKind::read;
    rd.addr = top;
    rd.size = 32;
    ctl->enqueue(rd);
    runAll();
    ctl->hintFutureWrite(top - 32, 64);
    runAll();
    EXPECT_EQ(ctl->ctrlStats().zeroFillPrograms, 1u);
    std::vector<std::uint8_t> out(64, 0xFF);
    ctl->functionalRead(top - 32, out.data(), out.size());
    EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + 32),
              std::vector<std::uint8_t>(32, 0));
    EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 32, out.end()),
              std::vector<std::uint8_t>(32, 0x5A));
}

TEST_F(ChannelTest, OutOfOrderCompletionsKeepRequestAccounting)
{
    // A slow write ahead of many fast reads completes last. The first
    // round holds more requests than the request ring starts with; the
    // second round's ids wrap around the grown ring.
    auto ctl = make(SchedulerConfig::finalConfig(), 4);
    std::vector<std::uint64_t> order;
    ctl->setCallback([&](const MemResponse &resp) {
        order.push_back(resp.id);
    });
    // Reads on modules 1-3, away from the write's module 0.
    auto read_word = [](std::uint64_t w) { return (w * 4 + 1 + w % 3) * 32; };
    std::vector<std::uint64_t> ids;
    for (int round = 0; round < 2; ++round) {
        const std::size_t first = ids.size();
        MemRequest req;
        req.kind = ReqKind::write;
        req.addr = 0;
        req.size = 32;
        ids.push_back(ctl->enqueue(req));
        req.kind = ReqKind::read;
        for (std::uint64_t w = 1; w <= 40; ++w) {
            req.addr = read_word(w);
            ids.push_back(ctl->enqueue(req));
        }
        EXPECT_EQ(ctl->pendingRequests(), 41u);
        eq.runUntil(eq.curTick() + fromUs(10)); // the write takes ~18 us
        EXPECT_EQ(order.size(), ids.size() - 1);
        EXPECT_EQ(ctl->pendingRequests(), 1u);
        EXPECT_FALSE(ctl->idle());
        runAll();
        EXPECT_EQ(ctl->pendingRequests(), 0u);
        EXPECT_TRUE(ctl->idle());
        ASSERT_EQ(order.size(), ids.size());
        EXPECT_EQ(order.back(), ids[first]);
    }
    std::vector<std::uint64_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, ids);
}

TEST_F(ChannelTest, HintUpToCapacityErasesOnlyTheHintedWords)
{
    auto ctl = make(SchedulerConfig::finalConfig(), 16);
    ctl->hintFutureWrite(ctl->capacity() - 512, 512);
    runAll();
    EXPECT_EQ(ctl->ctrlStats().zeroFillPrograms, 16u);
}

TEST_F(ChannelTest, DeathOnHintBeyondCapacity)
{
    // The words past the end are overlay-window rows.
    auto ctl = make(SchedulerConfig::finalConfig(), 16);
    EXPECT_DEATH(ctl->hintFutureWrite(ctl->capacity() - 512, 4096 + 512),
                 "hint beyond capacity");
}

TEST_F(ChannelTest, DeathOnMoreModulesThanTheVerifyMaskHolds)
{
    EXPECT_DEATH(make(SchedulerConfig::finalConfig(), 33),
                 "33 modules exceed");
}

TEST_F(ChannelTest, DeathOnMalformedRequests)
{
    auto ctl = make(SchedulerConfig::finalConfig());
    MemRequest req;
    req.kind = ReqKind::read;
    req.addr = 0;
    req.size = 31;
    EXPECT_DEATH(ctl->enqueue(req), "multiple");
    req.size = 32;
    req.addr = 16;
    EXPECT_DEATH(ctl->enqueue(req), "misaligned");
    req.addr = ctl->capacity();
    EXPECT_DEATH(ctl->enqueue(req), "beyond capacity");
}

} // namespace
} // namespace ctrl
} // namespace dramless
