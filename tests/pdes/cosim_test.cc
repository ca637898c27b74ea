/**
 * @file
 * Tests of the co-simulated serving fleet on the sharded kernel:
 * the shards=1 vs shards=N differential (bit-identical ServingResult
 * JSON including the full per-request timestamp table), run-to-run
 * determinism, admission bounds, and timing invariants of the
 * dispatch hop, plus a golden pin of a small run's per-request
 * timeline.
 *
 * Regenerate the pin with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/pdes/pdes_tests \
 *       --gtest_filter='CoSimGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hh"
#include "serve/arrival.hh"
#include "serve/cosim.hh"
#include "sim/json.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/pdes/golden"
#endif

namespace dramless
{
namespace serve
{
namespace
{

/** Tiny workload mix so each kernel launch costs microseconds. */
std::vector<std::shared_ptr<const workload::WorkloadModel>>
tinyMix()
{
    return {
        workload::modelFor(workload::Polybench::byName("gemver"))
            ->scaled(0.002),
        workload::modelFor(workload::Polybench::byName("trisolv"))
            ->scaled(0.002),
    };
}

CoSimConfig
baseConfig()
{
    CoSimConfig cfg;
    cfg.fleet.numNodes = 3;
    cfg.fleet.queueCapacity = 4;
    cfg.fleet.policy = DispatchPolicy::joinShortestQueue;
    cfg.node.numPes = 4;
    cfg.node.seed = 7;
    return cfg;
}

std::vector<Request>
poissonSchedule(std::uint64_t n, double rate_per_sec,
                std::uint64_t seed)
{
    ArrivalConfig ac;
    ac.numRequests = n;
    ac.ratePerSec = rate_per_sec;
    ac.seed = seed;
    ac.mixWeights = {2.0, 1.0};
    return PoissonArrivals(ac).generate();
}

std::string
resultJson(const ServingResult &res)
{
    std::ostringstream os;
    json::JsonWriter w(os, /*pretty=*/false);
    // Full per-request table: "bit-identical" means every timestamp
    // of every request, not just the aggregates.
    res.writeJson(w, 0, /*with_records=*/true);
    return os.str();
}

TEST(CoSimFleetTest, ShardCountsAreBitIdentical)
{
    auto schedule = poissonSchedule(24, 30000.0, 11);
    CoSimConfig cfg = baseConfig();

    cfg.node.shards = 1;
    CoSimFleet serial(cfg, tinyMix());
    ServingResult ref = serial.run(schedule);
    std::string ref_json = resultJson(ref);
    EXPECT_GT(ref.completed, 0u);

    for (unsigned shards : {2u, 4u, 0u}) {
        cfg.node.shards = shards;
        CoSimFleet fleet(cfg, tinyMix());
        ServingResult got = fleet.run(schedule);
        EXPECT_EQ(resultJson(got), ref_json)
            << "shards=" << shards
            << " diverged from the serial kernel";
        EXPECT_EQ(fleet.kernelStats().messages,
                  serial.kernelStats().messages);
        EXPECT_EQ(fleet.kernelStats().windows,
                  serial.kernelStats().windows);
        EXPECT_EQ(fleet.kernelStats().events,
                  serial.kernelStats().events);
    }
}

TEST(CoSimFleetTest, RunToRunDeterminism)
{
    auto schedule = poissonSchedule(16, 20000.0, 3);
    CoSimConfig cfg = baseConfig();
    cfg.node.shards = 4;
    CoSimFleet fleet(cfg, tinyMix());
    std::string first = resultJson(fleet.run(schedule));
    std::string second = resultJson(fleet.run(schedule));
    EXPECT_EQ(first, second);
}

TEST(CoSimFleetTest, HopTimingInvariants)
{
    auto schedule = poissonSchedule(12, 15000.0, 5);
    CoSimConfig cfg = baseConfig();
    CoSimFleet fleet(cfg, tinyMix());
    ServingResult res = fleet.run(schedule);
    const Tick hop = fleet.hopLatency();
    ASSERT_GT(hop, 0u);

    for (const RequestRecord &rec : res.records) {
        if (rec.rejected) {
            EXPECT_EQ(rec.completion, rec.arrival);
            continue;
        }
        // Service cannot start before the dispatch message crossed
        // the link, and every launch takes real simulated time.
        EXPECT_GE(rec.start, rec.dispatch + hop);
        EXPECT_GT(rec.completion, rec.start);
        EXPECT_GE(rec.node, 0);
        EXPECT_LT(rec.node, std::int32_t(cfg.fleet.numNodes));
    }
    // Dispatch + completion notice per admitted request.
    EXPECT_EQ(fleet.kernelStats().messages, 2 * res.completed);
    EXPECT_GT(fleet.kernelStats().windows, 0u);
}

TEST(CoSimFleetTest, AdmissionBoundRejectsBursts)
{
    // One node, no waiting room, a burst at one tick: exactly one
    // request is admitted before the dispatcher's view fills.
    CoSimConfig cfg = baseConfig();
    cfg.fleet.numNodes = 1;
    cfg.fleet.queueCapacity = 0;
    std::vector<Request> burst(6);
    for (std::size_t i = 0; i < burst.size(); ++i) {
        burst[i].id = i;
        burst[i].arrival = fromUs(1.0);
        burst[i].workloadIndex = 0;
    }
    CoSimFleet fleet(cfg, tinyMix());
    ServingResult res = fleet.run(burst);
    EXPECT_EQ(res.offered, burst.size());
    EXPECT_EQ(res.completed, 1u);
    EXPECT_EQ(res.rejected, burst.size() - 1);
}

TEST(CoSimFleetTest, PriorityAndPolicyKnobsChangeOutcomes)
{
    auto schedule = poissonSchedule(20, 40000.0, 9);
    CoSimConfig cfg = baseConfig();
    cfg.fleet.policy = DispatchPolicy::roundRobin;
    CoSimFleet rr(cfg, tinyMix());
    ServingResult rr_res = rr.run(schedule);
    EXPECT_EQ(rr_res.policy, "rr");
    EXPECT_EQ(rr_res.completed + rr_res.rejected, rr_res.offered);
    // The schedule must actually exercise both mix entries.
    bool saw[2] = {false, false};
    for (const auto &rec : rr_res.records)
        saw[rec.workloadIndex] = true;
    EXPECT_TRUE(saw[0]);
    EXPECT_TRUE(saw[1]);
}

/** Render each request's node, service start and completion. */
void
emitTimeline(std::ostringstream &os, const char *run,
             const ServingResult &res)
{
    for (const RequestRecord &r : res.records) {
        os << run << "/" << r.id << " node " << r.node << " start "
           << r.start << " completion " << r.completion << "\n";
    }
}

TEST(CoSimGoldenTest, RequestTimelineMatchesGoldenFile)
{
    // Pins the node wiring of SimNode (subsystem, accelerator, address
    // map, per-agent launch) and both dispatch rules and queue picks
    // of the frontend: jsq with FIFO queues, and rr with priority
    // queues fed a burst that overflows some of them.
    std::ostringstream os;
    os << "# Golden co-simulated serving timeline. Regenerate with "
          "DRAMLESS_UPDATE_GOLDEN=1.\n";
    CoSimConfig cfg = baseConfig();
    emitTimeline(os, "jsq_fifo",
                 CoSimFleet(cfg, tinyMix())
                     .run(poissonSchedule(24, 30000.0, 11)));

    ArrivalConfig ac;
    ac.numRequests = 24;
    ac.ratePerSec = 200000.0;
    ac.seed = 13;
    ac.mixWeights = {2.0, 1.0};
    ac.mixPriorities = {0, 1};
    cfg.fleet.policy = DispatchPolicy::roundRobin;
    cfg.fleet.queueCapacity = 2;
    cfg.fleet.priorityScheduling = true;
    emitTimeline(os, "rr_priority",
                 CoSimFleet(cfg, tinyMix())
                     .run(PoissonArrivals(ac).generate()));

    expectMatchesGolden(std::string(DRAMLESS_GOLDEN_DIR) +
                            "/cosim_timeline.txt",
                        os.str());
}

} // anonymous namespace
} // namespace serve
} // namespace dramless
