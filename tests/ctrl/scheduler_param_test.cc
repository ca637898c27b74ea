/**
 * @file
 * Parameterized property tests: every scheduler configuration must
 * preserve functional correctness and protocol invariants under
 * randomized traffic; only performance may differ.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <vector>

#include "ctrl/channel_controller.hh"
#include "reliability/fault_model.hh"
#include "sim/random.hh"

namespace dramless
{
namespace ctrl
{

// Print a configuration as its label, so the parameterized cases keep
// their ctest names when a field is added or removed.
void
PrintTo(const SchedulerConfig &c, std::ostream *os)
{
    *os << c.label();
}

namespace
{

class SchedulerParamTest
    : public ::testing::TestWithParam<SchedulerConfig>
{
  protected:
    std::unique_ptr<ChannelController>
    make(std::uint32_t modules = 4)
    {
        auto ctl = std::make_unique<ChannelController>(
            eq, modules, pram::PramGeometry::paperDefault(),
            pram::PramTiming::paperDefault(), GetParam(), "ch");
        ctl->setCallback([this](const MemResponse &r) {
            completions.push_back(r);
        });
        return ctl;
    }

    /** Run every event, checking the controller's invariants after
     *  each. */
    void
    drain(const ChannelController &ctl)
    {
        Tick first_bad = maxTick;
        while (eq.step()) {
            if (first_bad == maxTick && !ctl.selfCheck())
                first_bad = eq.curTick();
        }
        EXPECT_EQ(first_bad, maxTick) << "selfCheck failed first at this tick";
    }

    /**
     * Randomized traffic on a channel of @p modules modules, with
     * fault injection when @p rel is enabled, and selfCheck() after
     * every event. Every word must end as the last write left it; a
     * hinted word no later write covered may also read zero.
     *
     * A gang phase comes first: channel-width aligned requests only
     * (full-width gangs under interleaving), so every module sees the
     * same actions. The lockstep set starts whole; all-zero members
     * (RESET-only programs) and verify failures split it at a gang's
     * execute, and it re-forms once their programs are done. The
     * phase comes first because gang traffic after mixed traffic
     * would not re-form the set: a module then picks its least
     * recently used row buffer by its own history, and the set
     * compares row buffers index by index. The mixed phase that
     * follows also sends 1-3 word requests, all-zero words and
     * hinted future-write ranges (zero-fills under selective
     * erasing).
     */
    void
    randomTraffic(std::uint32_t modules,
                  const reliability::ReliabilityConfig &rel = {})
    {
        auto ctl = make(modules);
        ctl->configureReliability(rel, 0);
        Random rng(31337);
        const std::uint64_t words = 24 * modules;
        std::vector<std::uint8_t> shadow(words * 32, 0);
        for (std::size_t i = 0; i < shadow.size(); ++i)
            shadow[i] = std::uint8_t(i * 7 + 1);
        ctl->functionalWrite(0, shadow.data(), shadow.size());
        std::vector<bool> may_be_zero(words, false);

        std::vector<std::vector<std::uint8_t>> bufs;
        auto send = [&](bool gang_only) {
            if (rng.chance(0.15)) {
                std::uint64_t w = rng.below(words);
                std::uint64_t n = std::min<std::uint64_t>(
                    rng.between(1, 2 * modules), words - w);
                if (gang_only) {
                    w = w / modules * modules;
                    n = modules;
                }
                ctl->hintFutureWrite(w * 32, n * 32);
                for (std::uint64_t k = w; k < w + n; ++k)
                    may_be_zero[k] = true;
                return;
            }
            std::uint64_t w;
            std::uint64_t n;
            if (gang_only || rng.chance(0.4)) {
                w = rng.below(words / modules) * modules;
                n = modules;
            } else {
                w = rng.below(words);
                n = std::min<std::uint64_t>(rng.between(1, 3), words - w);
            }
            MemRequest req;
            req.addr = w * 32;
            req.size = std::uint32_t(n * 32);
            if (rng.chance(0.45)) {
                bufs.emplace_back(req.size);
                for (auto &b : bufs.back())
                    b = std::uint8_t(rng.next());
                // An all-zero word programs RESET-only, so it ends
                // apart from the rest of its gang.
                for (std::uint64_t k = 0; k < n; ++k) {
                    if (rng.chance(0.25))
                        std::fill_n(bufs.back().begin() + k * 32, 32, 0);
                }
                std::memcpy(shadow.data() + req.addr,
                            bufs.back().data(), req.size);
                for (std::uint64_t k = w; k < w + n; ++k)
                    may_be_zero[k] = false;
                req.kind = ReqKind::write;
                req.writeFrom = bufs.back().data();
            } else {
                req.kind = ReqKind::read;
            }
            ctl->enqueue(req);
        };
        for (int i = 0; i < 60; ++i) {
            if (i % 4 == 3)
                drain(*ctl);
            send(true);
        }
        for (int i = 0; i < 150; ++i) {
            if (i % 16 == 15)
                drain(*ctl);
            send(false);
        }
        drain(*ctl);
        EXPECT_TRUE(ctl->idle());
        // The traffic reaches the paths it is meant to cover.
        const ControllerStats &st = ctl->ctrlStats();
        EXPECT_EQ(st.gangSubOps > 0, GetParam().interleaving);
        EXPECT_EQ(st.zeroFillPrograms > 0, GetParam().selectiveErasing);
        EXPECT_EQ(st.verifyRetries > 0, rel.enabled);
        for (const MemResponse &r : completions)
            EXPECT_FALSE(r.failed) << "request " << r.id;

        std::vector<std::uint8_t> out(shadow.size());
        ctl->functionalRead(0, out.data(), out.size());
        const std::array<std::uint8_t, 32> zero{};
        for (std::uint64_t k = 0; k < words; ++k) {
            const std::uint8_t *got = out.data() + k * 32;
            EXPECT_TRUE(std::memcmp(got, shadow.data() + k * 32, 32) == 0 ||
                        (may_be_zero[k] &&
                         std::memcmp(got, zero.data(), 32) == 0))
                << "word " << k << " under scheduler "
                << GetParam().label();
        }
    }

    EventQueue eq;
    std::vector<MemResponse> completions;
};

TEST_P(SchedulerParamTest, RandomTrafficFunctionalIntegrity)
{
    randomTraffic(4);
}

TEST_P(SchedulerParamTest, RandomTrafficOnSixteenModules)
{
    randomTraffic(16);
}

TEST_P(SchedulerParamTest, RandomTrafficWithVerifyRetries)
{
    // Verify failures re-pulse the failing members of a gang only.
    reliability::ReliabilityConfig rel;
    rel.enabled = true;
    rel.seed = 11;
    rel.writeFailProb = 0.05;
    rel.maxProgramRetries = 3;
    randomTraffic(4, rel);
}

TEST_P(SchedulerParamTest, EveryRequestCompletesExactlyOnce)
{
    auto ctl = make();
    Random rng(7);
    std::uint64_t issued = 0;
    for (int i = 0; i < 120; ++i) {
        MemRequest req;
        req.kind = rng.chance(0.3) ? ReqKind::write : ReqKind::read;
        req.addr = rng.below(64) * 32;
        req.size = 32 * std::uint32_t(rng.between(1, 4));
        ctl->enqueue(req);
        ++issued;
    }
    eq.run();
    EXPECT_EQ(completions.size(), issued);
    // Ids are unique.
    std::map<std::uint64_t, int> seen;
    for (const auto &r : completions)
        EXPECT_EQ(++seen[r.id], 1);
    EXPECT_TRUE(ctl->idle());
}

TEST_P(SchedulerParamTest, CompletionTicksAreMonotonicPerQueueDrain)
{
    auto ctl = make(2);
    for (int i = 0; i < 20; ++i) {
        MemRequest req;
        req.kind = ReqKind::read;
        req.addr = std::uint64_t(i) * 32;
        req.size = 32;
        ctl->enqueue(req);
    }
    eq.run();
    ASSERT_EQ(completions.size(), 20u);
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GE(completions[i].completedAt,
                  completions[i - 1].completedAt);
}

TEST_P(SchedulerParamTest, HintsNeverCorruptData)
{
    auto ctl = make(2);
    std::vector<std::uint8_t> data(64 * 32);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 11 + 3);
    ctl->functionalWrite(0, data.data(), data.size());
    // Hint over live data, then touch it with reads and writes.
    ctl->hintFutureWrite(0, data.size());
    std::vector<std::uint8_t> newdata(32, 0xEE);
    for (int i = 0; i < 8; ++i) {
        MemRequest rd;
        rd.kind = ReqKind::read;
        rd.addr = std::uint64_t(i) * 64;
        rd.size = 32;
        ctl->enqueue(rd);
    }
    MemRequest wr;
    wr.kind = ReqKind::write;
    wr.addr = 32;
    wr.size = 32;
    wr.writeFrom = newdata.data();
    ctl->enqueue(wr);
    drain(*ctl);
    std::memcpy(data.data() + 32, newdata.data(), 32);

    std::vector<std::uint8_t> out(data.size());
    ctl->functionalRead(0, out.data(), out.size());
    // Words the kernel read or wrote must be exact; hinted-but-
    // untouched words may legitimately have been pre-erased.
    EXPECT_EQ(std::memcmp(out.data() + 32, data.data() + 32, 32), 0);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(std::memcmp(out.data() + i * 64,
                              data.data() + i * 64, 32),
                  0)
            << "read word " << i << " corrupted under "
            << GetParam().label();
    }
}

TEST(SchedulerPresetTest, PresetsPinEveryFieldAndLabelsRoundTrip)
{
    // The presets use designated initializers so a new or reordered
    // field cannot silently mis-bind again; this pins the full field
    // set of each Figure 13 bar and the label() mapping.
    const SchedulerConfig bare = SchedulerConfig::bareMetal();
    EXPECT_FALSE(bare.interleaving);
    EXPECT_FALSE(bare.selectiveErasing);
    EXPECT_EQ(bare.label(), "Bare-metal");

    const SchedulerConfig inter = SchedulerConfig::interleavingOnly();
    EXPECT_TRUE(inter.interleaving);
    EXPECT_FALSE(inter.selectiveErasing);
    EXPECT_EQ(inter.label(), "Interleaving");

    const SchedulerConfig se = SchedulerConfig::selectiveErasingOnly();
    EXPECT_FALSE(se.interleaving);
    EXPECT_TRUE(se.selectiveErasing);
    EXPECT_EQ(se.label(), "selective-erasing");

    const SchedulerConfig fin = SchedulerConfig::finalConfig();
    EXPECT_TRUE(fin.interleaving);
    EXPECT_TRUE(fin.selectiveErasing);
    EXPECT_EQ(fin.label(), "Final");

    // Defaults equal the shipped Final configuration.
    const SchedulerConfig dflt{};
    EXPECT_EQ(dflt.label(), "Final");
    EXPECT_EQ(dflt.interleaving, fin.interleaving);
    EXPECT_EQ(dflt.selectiveErasing, fin.selectiveErasing);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerParamTest,
    ::testing::Values(SchedulerConfig::bareMetal(),
                      SchedulerConfig::interleavingOnly(),
                      SchedulerConfig::selectiveErasingOnly(),
                      SchedulerConfig::finalConfig()),
    [](const ::testing::TestParamInfo<SchedulerConfig> &info) {
        std::string label = info.param.label();
        for (auto &c : label) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return label;
    });

} // namespace
} // namespace ctrl
} // namespace dramless
