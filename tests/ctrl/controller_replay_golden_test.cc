/**
 * @file
 * Golden pin of the channel controller's exact behaviour on the
 * scheduler paths the benchmark workloads never take: every Figure 13
 * preset at 4 and 8 row buffers. Each configuration replays one
 * seeded stream of words, aligned channel pieces and unaligned
 * multi-word requests, with selective-erasing hints, fault injection
 * (verify retries and exhausted writes) and admission back-pressure,
 * and pins the event count, every controller counter, the latency
 * sums and a hash of the completion stream. The stream also drives
 * the in-flight-sense wait: a row's RDB is warm while an earlier
 * data burst still holds its RAB.
 *
 * Regenerate the pin with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/ctrl/ctrl_tests \
 *       --gtest_filter='ControllerReplayGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ctrl/channel_controller.hh"
#include "golden_file.hh"
#include "sim/random.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/ctrl/golden"
#endif

namespace dramless
{
namespace ctrl
{
namespace
{

constexpr std::uint32_t unit = 32;
constexpr std::uint32_t numModules = 16;
constexpr std::uint64_t piece = unit * numModules;
/** Random traffic region, in words. */
constexpr std::uint64_t regionWords = 4096;
/** Region hinted before the stream starts (unaligned at both ends). */
constexpr std::uint64_t hintBase = 160 * 1024 + 96;
constexpr std::uint64_t hintBytes = 8 * 1024 + 160;
/** Region hinted mid-stream; part of it was touched before. */
constexpr std::uint64_t lateHintBase = 64 * 1024;
constexpr std::uint64_t lateHintBytes = 4 * 1024;
constexpr int numRequests = 700;

/** FNV-1a over 64-bit values. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** Draw the next request of the stream. */
MemRequest
nextRequest(Random &rng)
{
    MemRequest req;
    req.kind = rng.chance(0.5) ? ReqKind::write : ReqKind::read;
    double shape = rng.uniform();
    if (shape < 0.15) {
        // Traffic into the early-hinted region, mostly writes.
        req.kind = rng.chance(0.7) ? ReqKind::write : ReqKind::read;
        std::uint64_t first = (hintBase + unit - 1) / unit;
        std::uint64_t words = hintBytes / unit - 1;
        std::uint64_t w = first + rng.below(words);
        std::uint64_t n = rng.between(1, 16);
        n = std::min(n, first + words - w);
        req.addr = w * unit;
        req.size = std::uint32_t(n * unit);
    } else if (shape < 0.50) {
        req.addr = rng.below(regionWords) * unit;
        req.size = unit;
    } else if (shape < 0.80) {
        req.addr = rng.below(regionWords * unit / piece) * piece;
        req.size = piece;
    } else {
        std::uint64_t n = rng.between(2, 40);
        req.addr = rng.below(regionWords - n) * unit;
        req.size = std::uint32_t(n * unit);
    }
    return req;
}

/** Replay the stream through one configuration and describe it. */
std::string
replay(const std::string &label, const SchedulerConfig &cfg,
       std::uint32_t row_buffers)
{
    EventQueue eq;
    pram::PramGeometry geom = pram::PramGeometry::paperDefault();
    geom.numRowBuffers = row_buffers;
    ChannelController ctl(eq, numModules, geom,
                          pram::PramTiming::paperDefault(), cfg, "ch0");
    reliability::ReliabilityConfig rel;
    rel.enabled = true;
    rel.seed = 77;
    rel.writeFailProb = 0.2;
    rel.maxProgramRetries = 1;
    ctl.configureReliability(rel, 5);

    std::map<std::uint64_t, std::pair<Tick, bool>> issued;
    Tick read_lat = 0, write_lat = 0;
    std::uint64_t completions = 0, failed = 0;
    Fnv stream;
    ctl.setCallback([&](const MemResponse &resp) {
        auto it = issued.find(resp.id);
        ASSERT_NE(it, issued.end());
        Tick lat = resp.completedAt - it->second.first;
        (it->second.second ? write_lat : read_lat) += lat;
        issued.erase(it);
        ++completions;
        failed += resp.failed;
        stream.add(resp.id);
        stream.add(resp.completedAt);
        stream.add(resp.failed);
    });

    Random rng(20260417);
    std::vector<std::vector<std::uint8_t>> bufs;
    bufs.reserve(numRequests);
    std::uint64_t stalls = 0;
    ctl.hintFutureWrite(hintBase, hintBytes);
    bool late_hinted = false;
    int sent = 0;
    while (sent < numRequests) {
        if (!late_hinted && sent >= numRequests / 2) {
            ctl.hintFutureWrite(lateHintBase, lateHintBytes);
            late_hinted = true;
        }
        int batch = int(rng.between(1, 48));
        for (int i = 0; i < batch && sent < numRequests; ++i, ++sent) {
            MemRequest req = nextRequest(rng);
            bufs.emplace_back(req.size);
            if (req.kind == ReqKind::write) {
                for (auto &b : bufs.back())
                    b = std::uint8_t(rng.next() | 1);
                req.writeFrom = bufs.back().data();
            } else {
                req.readInto = bufs.back().data();
            }
            while (!ctl.canAccept(req)) {
                ++stalls;
                if (!eq.step()) {
                    ADD_FAILURE() << label << ": stalled forever";
                    return {};
                }
            }
            std::uint64_t id = ctl.enqueue(req);
            issued[id] = {eq.curTick(), req.kind == ReqKind::write};
        }
        eq.runUntil(eq.curTick() + fromNs(double(rng.below(4000))));
    }
    eq.run();
    EXPECT_TRUE(ctl.idle()) << label;
    EXPECT_TRUE(issued.empty()) << label;

    const ControllerStats &s = ctl.ctrlStats();
    std::ostringstream os;
    auto put = [&](const char *key, std::uint64_t v) {
        os << label << " " << key << " " << v << "\n";
    };
    put("events", eq.numProcessed());
    put("final_tick", eq.curTick());
    put("stalls", stalls);
    put("completions", completions);
    put("failed_completions", failed);
    put("read_latency_ticks", read_lat);
    put("write_latency_ticks", write_lat);
    put("completion_hash", stream.h);
    put("readRequests", s.readRequests);
    put("writeRequests", s.writeRequests);
    put("readWords", s.readWords);
    put("writeWords", s.writeWords);
    put("preActivesSkipped", s.preActivesSkipped);
    put("activatesSkipped", s.activatesSkipped);
    put("zeroFillPrograms", s.zeroFillPrograms);
    put("zeroFillSkipped", s.zeroFillSkipped);
    put("gangSubOps", s.gangSubOps);
    put("gangWords", s.gangWords);
    put("verifyRetries", s.verifyRetries);
    put("verifyFailedWrites", s.verifyFailedWrites);
    put("zeroFillVerifyDrops", s.zeroFillVerifyDrops);
    put("readLatencySamples", s.readLatencyNs.count());
    put("writeLatencySamples", s.writeLatencyNs.count());
    return os.str();
}

TEST(ControllerReplayGoldenTest, EveryPresetMatchesGoldenFile)
{
    struct Preset
    {
        const char *name;
        SchedulerConfig cfg;
    };
    const Preset presets[] = {
        {"bare_metal", SchedulerConfig::bareMetal()},
        {"interleaving", SchedulerConfig::interleavingOnly()},
        {"selective_erasing", SchedulerConfig::selectiveErasingOnly()},
        {"final", SchedulerConfig::finalConfig()},
    };
    std::ostringstream os;
    os << "# Golden channel-controller replay. Regenerate with "
          "DRAMLESS_UPDATE_GOLDEN=1.\n";
    for (const Preset &p : presets) {
        for (std::uint32_t rb : {4u, 8u}) {
            os << replay(std::string(p.name) + "_rb" + std::to_string(rb),
                         p.cfg, rb);
        }
    }
    expectMatchesGolden(std::string(DRAMLESS_GOLDEN_DIR) +
                            "/controller_replay.txt",
                        os.str());
}

} // namespace
} // namespace ctrl
} // namespace dramless
