/**
 * @file
 * Request-level serving evaluation: an open-loop Poisson arrival
 * stream of mixed requests (short BFS/SpMV graph queries and DNN
 * inferences plus a long Polybench kernel) served by a fleet of
 * accelerator+PRAM nodes per organization, swept across arrival
 * rates to locate each organization's saturation knee.
 *
 * Two phases. The *probe* phase runs every (organization, workload)
 * pair once on the cycle-level system models (SweepRunner thread
 * pool) to calibrate per-request service times. The *load sweep*
 * then replays seeded request schedules through the serve::Fleet
 * queueing layer at increasing offered load (fractions of the
 * fleet's service capacity), reporting offered load vs. goodput,
 * p50/p99/p999 queueing and end-to-end latency, queue depths,
 * rejections, and the knee — the lowest swept load where the fleet
 * stops completing everything it is offered. Full mode adds a
 * bursty (MMPP) run per organization at mid load to show the tail
 * blow-up average-rate metrics hide.
 *
 * The binary self-checks the physics its figure depends on — up to
 * the knee, p99 end-to-end latency must be monotone non-decreasing
 * in offered load; past it, the goodput ratio must not rise; and the
 * top rate must saturate (goodput < offered) — and fails loudly
 * otherwise, so the ctest smoke is a real regression gate.
 *
 * A closing co-sim spot check replays a scaled-down schedule against
 * live cycle-level nodes over a modeled PCIe hop (serve::CoSimFleet
 * on the sharded PDES kernel), honoring DRAMLESS_SHARDS for the
 * worker count — results are bit-identical for every shard count.
 *
 * The fleet is 4 nodes per organization behind a join-shortest-queue
 * dispatcher with 16-deep queues, fed 5,000 requests per load point
 * (2,000 in quick mode) from arrival seed 7.
 *
 * Environment knobs:
 *   DRAMLESS_SERVING_QUICK  2 orgs x 3 workloads x 3 loads (CI)
 *   DRAMLESS_SCALE          workload volume scale (default 0.25)
 *   DRAMLESS_JOBS           probe worker threads
 *   DRAMLESS_SHARDS         co-sim PDES workers (1 = serial)
 *   DRAMLESS_OUT_JSON/CSV   structured export ("-" = stdout)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "serve/cosim.hh"

using namespace dramless;

namespace
{

struct Setup
{
    bool quick = false;
    std::vector<systems::SystemKind> orgs;
    std::vector<std::shared_ptr<const workload::WorkloadModel>>
        models;
    std::vector<double> mixWeights;
    std::vector<double> loads;
    std::uint64_t requests = 5000;
    std::uint64_t seed = 7;
    serve::FleetConfig fleet;
};

Setup
setupFromEnv()
{
    Setup s;
    s.quick = std::getenv("DRAMLESS_SERVING_QUICK") != nullptr;
    if (s.quick) {
        s.orgs = {systems::SystemKind::hetero,
                  systems::SystemKind::dramLess};
    } else {
        s.orgs = {systems::SystemKind::hetero,
                  systems::SystemKind::heterodirect,
                  systems::SystemKind::integratedSlc,
                  systems::SystemKind::dramLess};
    }
    s.requests = s.quick ? 2000 : 5000;
    s.fleet.numNodes = 4;
    s.fleet.queueCapacity = 16;
    s.fleet.policy = serve::DispatchPolicy::joinShortestQueue;

    // The request mix: mostly short graph queries and DNN inferences
    // with a tail of long Polybench kernel launches (the mixed
    // short/long stream the graph-accelerator access-pattern
    // literature argues is the realistic serving shape; inference is
    // the ROADMAP's "requests become inferences" serving traffic).
    auto graphQuery = [&](workload::GraphKernel kernel) {
        workload::GraphWorkloadConfig cfg;
        cfg.kernel = kernel;
        cfg.graph.numVertices = s.quick ? 4096 : 8192;
        cfg.graph.edgeFactor = 8.0;
        cfg.iterations = 1;
        return std::make_shared<workload::GraphWorkload>(cfg);
    };
    s.models.push_back(graphQuery(workload::GraphKernel::bfs));
    if (s.quick) {
        s.models.push_back(workload::dnnModelFor("mlp", 1));
        s.models.push_back(
            workload::modelFor(workload::Polybench::byName("gemver")));
        s.mixWeights = {0.55, 0.25, 0.2};
        s.loads = {0.25, 0.8, 1.6};
    } else {
        s.models.push_back(graphQuery(workload::GraphKernel::spmv));
        s.models.push_back(workload::dnnModelFor("mlp", 1));
        s.models.push_back(workload::dnnModelFor("lenet", 1));
        s.models.push_back(
            workload::modelFor(workload::Polybench::byName("gemver")));
        s.mixWeights = {0.4, 0.2, 0.15, 0.1, 0.15};
        s.loads = {0.2, 0.5, 0.8, 1.1, 1.5};
    }
    return s;
}

} // anonymous namespace

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    Setup s = setupFromEnv();

    // ------------------- probe: calibrate service times ------------
    auto jobs = runner::makeMatrixJobs(
        s.orgs, bench::scaled(s.models, scale), opts);
    runner::SweepRunner pool(runner::jobsFromEnv());
    std::printf("serving sweep: %zu orgs x %zu workloads probe, "
                "%zu loads x %llu requests, %u nodes/org, policy "
                "%s, %u worker%s, scale %.2f\n\n",
                s.orgs.size(), s.models.size(), s.loads.size(),
                (unsigned long long)s.requests, s.fleet.numNodes,
                serve::dispatchPolicyName(s.fleet.policy),
                pool.numWorkers(), pool.numWorkers() == 1 ? "" : "s",
                scale);
    std::vector<systems::RunResult> probe =
        pool.run(jobs, runner::stderrProgress());

    serve::ServingSink sink(
        "fig_serving",
        "Open-loop load sweep: offered load vs goodput and tail "
        "latency per organization, with the saturation knee");
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", scale);
        sink.label("workload_scale", buf);
        sink.label("policy",
                   serve::dispatchPolicyName(s.fleet.policy));
        std::snprintf(buf, sizeof(buf), "%llu",
                      (unsigned long long)s.seed);
        sink.label("seed", buf);
    }

    // --------------------------- load sweep -------------------------
    std::vector<std::string> orgLabels;
    std::vector<double> knees;
    for (std::size_t o = 0; o < s.orgs.size(); ++o) {
        const char *label =
            systems::SystemFactory::label(s.orgs[o]);
        orgLabels.push_back(label);

        std::vector<Tick> serviceTicks;
        double weightedServiceSec = 0.0, weightSum = 0.0;
        for (std::size_t m = 0; m < s.models.size(); ++m) {
            const auto &r = probe[o * s.models.size() + m];
            fatal_if(r.failed() || r.execTime == 0,
                     "probe run %s/%s produced no service time",
                     r.system.c_str(), r.workload.c_str());
            serviceTicks.push_back(r.execTime);
            weightedServiceSec +=
                s.mixWeights[m] * toSec(r.execTime);
            weightSum += s.mixWeights[m];
        }
        weightedServiceSec /= weightSum;
        // One node completes 1/meanService requests per second, so
        // load L offers L * numNodes / meanService.
        double capacityRps =
            double(s.fleet.numNodes) / weightedServiceSec;

        serve::Fleet fleet(s.fleet, serviceTicks);
        double prevP99 = 0.0;
        double prevGoodput = 1.0;
        double knee = 0.0;
        std::printf("%-22s", label);
        for (double load : s.loads) {
            serve::ArrivalConfig acfg;
            acfg.ratePerSec = load * capacityRps;
            acfg.numRequests = s.requests;
            acfg.seed = s.seed;
            acfg.mixWeights = s.mixWeights;
            serve::PoissonArrivals arrivals(acfg);

            serve::ServingResult res =
                fleet.run(arrivals.generate());
            res.system = label;
            res.arrival = csprintf("poisson/load=%.2f", load);

            // Physics gates (same seed, heavier traffic). Up to the
            // knee, latency must not improve as offered load grows.
            // Past it, bounded admission rejects work and so caps the
            // admitted requests' latency: there the goodput ratio
            // must not rise with load instead.
            if (knee == 0.0 && res.completionRatio() < 0.999)
                knee = load;
            if (knee == 0.0) {
                fatal_if(res.p99E2eUs + 1e-9 < prevP99,
                         "%s: p99 e2e latency decreased from %.1fus "
                         "to %.1fus when load rose to %.2f",
                         label, prevP99, res.p99E2eUs, load);
            } else {
                fatal_if(res.completionRatio() > prevGoodput + 1e-9,
                         "%s: goodput ratio rose from %.3f to %.3f "
                         "past the knee when load rose to %.2f",
                         label, prevGoodput, res.completionRatio(),
                         load);
            }
            prevP99 = res.p99E2eUs;
            prevGoodput = res.completionRatio();

            sink.metric(
                csprintf("p99_e2e_us/%s/load_%.2f", label, load),
                res.p99E2eUs);
            sink.metric(
                csprintf("goodput_ratio/%s/load_%.2f", label, load),
                res.completionRatio());
            sink.add(res);
            std::printf("  L%.2f p99 %8.2fms good %5.1f%%", load,
                        res.p99E2eUs / 1e3,
                        res.completionRatio() * 100.0);

            // The top rate must be past saturation: the fleet
            // rejects work and goodput falls short of offered load.
            if (load == s.loads.back()) {
                fatal_if(res.rejected == 0 ||
                             res.goodputPerSec >=
                                 res.offeredRatePerSec,
                         "%s: top load %.2f did not saturate "
                         "(rejected %llu, goodput %.1f/s vs "
                         "offered %.1f/s)",
                         label, load,
                         (unsigned long long)res.rejected,
                         res.goodputPerSec, res.offeredRatePerSec);
            }
        }
        std::printf("\n");
        if (knee > 0.0) {
            sink.metric(csprintf("knee_load/%s", label), knee);
            knees.push_back(knee);
        }

        // Bursty traffic at mid load: same mean rate, MMPP
        // modulation — the tail the Poisson average hides.
        if (!s.quick) {
            serve::ArrivalConfig acfg;
            double midLoad = s.loads[s.loads.size() / 2];
            acfg.ratePerSec = midLoad * capacityRps;
            acfg.numRequests = s.requests;
            acfg.seed = s.seed;
            acfg.mixWeights = s.mixWeights;
            serve::MmppArrivals::Burst burst;
            burst.burstMultiplier = 6.0;
            burst.meanQuietSec = 40.0 * weightedServiceSec;
            burst.meanBurstSec = 10.0 * weightedServiceSec;
            serve::MmppArrivals mmpp(acfg, burst);
            serve::ServingResult res = fleet.run(mmpp.generate());
            res.system = label;
            res.arrival = csprintf("mmpp/load=%.2f", midLoad);
            sink.metric(csprintf("p99_e2e_us_mmpp/%s", label),
                        res.p99E2eUs);
            sink.add(res);
        }
    }

    // Summary knee geomean. An oversaturated sweep can locate no
    // knee for any organization (or, degenerately, every request
    // can be rejected) — report 0 with an explicit flag instead of
    // crashing on an empty geomean.
    sink.metric("orgs_with_knee", double(knees.size()));
    sink.metric("knee_load_gm",
                knees.empty() ? 0.0 : stats::geomean(knees));
    if (!knees.empty()) {
        std::printf("\nsaturation knee (load factor), geomean over "
                    "%zu orgs: %.2f\n",
                    knees.size(), stats::geomean(knees));
    }

    // ---------------- co-sim spot check (sharded kernel) -----------
    // The load sweep above abstracts each node as a calibrated
    // service-time table. The co-simulated fleet replays a seeded
    // schedule of the same request mix (volume-scaled so each launch
    // costs microseconds) against live cycle-level nodes behind a
    // modeled PCIe hop, partitioned one-cluster-per-node on the
    // conservative sharded event kernel. DRAMLESS_SHARDS picks the
    // worker count; every value is bit-identical to the serial
    // reference, so this doubles as a smoke of the PDES path under
    // whatever shard count CI exports.
    {
        unsigned shards = runner::shardsFromEnv();
        serve::CoSimConfig ccfg;
        ccfg.fleet = s.fleet;
        ccfg.node = opts;
        ccfg.node.shards = shards;
        std::vector<std::shared_ptr<const workload::WorkloadModel>>
            cmix;
        for (const auto &m : s.models)
            cmix.push_back(m->scaled(s.quick ? 0.002 : 0.005));

        serve::ArrivalConfig acfg;
        acfg.numRequests = s.quick ? 48 : 192;
        acfg.ratePerSec = 30000.0;
        acfg.seed = s.seed;
        acfg.mixWeights = s.mixWeights;
        serve::CoSimFleet cofleet(ccfg, cmix);
        serve::ServingResult res =
            cofleet.run(serve::PoissonArrivals(acfg).generate());
        res.system = "cosim";
        res.arrival = "poisson/cosim";
        fatal_if(res.completed == 0,
                 "co-sim fleet completed no requests");

        const pdes::KernelStats &ks = cofleet.kernelStats();
        std::printf("\nco-sim spot check (%u nodes, %u shard%s): "
                    "%llu/%llu completed, p99 e2e %.1fus, "
                    "%llu windows / %llu messages\n",
                    ccfg.fleet.numNodes, shards,
                    shards == 1 ? "" : "s",
                    (unsigned long long)res.completed,
                    (unsigned long long)res.offered, res.p99E2eUs,
                    (unsigned long long)ks.windows,
                    (unsigned long long)ks.messages);
        // The shard count is deliberately NOT exported: results are
        // bit-identical for every value, and the determinism pair in
        // bench/CMakeLists.txt byte-compares exports made with
        // different DRAMLESS_SHARDS to prove it.
        sink.metric("cosim_p99_e2e_us", res.p99E2eUs);
        sink.metric("cosim_goodput_ratio", res.completionRatio());
        sink.metric("cosim_kernel_windows", double(ks.windows));
        sink.metric("cosim_kernel_messages", double(ks.messages));
        sink.add(res);
    }

    sink.exportFromEnv();
    return 0;
}
