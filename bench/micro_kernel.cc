/**
 * @file
 * Wall-clock microbenchmark of the simulation kernel: events/sec and
 * peak RSS. This is the repo's perf-trajectory anchor — the committed
 * BENCH_9.json baseline is compared against by `--check-against`
 * (scripts/check.sh stage 3, ctest label `perf`). Besides the
 * throughput gates, the sweep's deterministic heap-event count is
 * gated upward so a coalescing regression (event blow-up) fails even
 * when raw wall clock stays inside tolerance, and the sharded
 * kernel's 4-worker speedup is gated against collapse (on machines
 * with the cores to measure it).
 *
 * Four workloads:
 *   steady  raw kernel throughput: a fixed population of persistent
 *           events self-rescheduling at pseudo-random deltas — the
 *           shape of every device model's scheduler/step event.
 *   churn   schedule/deschedule/reschedule mix over a large event
 *           population: stresses mid-heap removal, which the lazy
 *           pre-PR kernel deferred and the indexed heap does eagerly.
 *   sweep   the quick (system x workload) matrix of the golden tests,
 *           run end to end: kernel throughput with real device models
 *           on top (the ratio that matters for Polybench sweeps).
 *   pdes    the co-simulated 4-node serving fleet on the sharded
 *           conservative-PDES kernel at 1/2/4 workers: the
 *           events/sec-per-shard scaling curve.
 *
 * Every workload reports the best of several repetitions so one
 * scheduler hiccup cannot fake a regression. Usage:
 *
 *   micro_kernel [--quick] [--check-against BENCH.json]
 *
 * Environment: DRAMLESS_OUT_JSON (export path). A rate may fall at
 * most 20% below the baseline, and a count rise at most 20% above.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "harness.hh"
#include "serve/arrival.hh"
#include "serve/cosim.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "workload/polybench.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A persistent event that reschedules itself a fixed number of times
 *  — the steady-state shape of scheduler/step/drain device events. */
class SelfRescheduler : public Event
{
  public:
    SelfRescheduler(EventQueue &eq, Random *rng,
                    std::uint64_t *remaining)
        : eq_(eq), rng_(rng), remaining_(remaining)
    {}

    void
    process() override
    {
        if (*remaining_ == 0)
            return;
        --*remaining_;
        eq_.schedule(this, eq_.curTick() + 1 + rng_->below(97));
    }

    std::string name() const override { return "steady"; }

  private:
    EventQueue &eq_;
    Random *rng_;
    std::uint64_t *remaining_;
};

/** steady: @p total events through @p population self-reschedulers.
 *  @return events per second. */
double
runSteady(std::uint64_t total, std::uint32_t population)
{
    EventQueue eq;
    Random rng(42);
    std::uint64_t remaining = total;
    std::vector<std::unique_ptr<SelfRescheduler>> events;
    events.reserve(population);
    for (std::uint32_t i = 0; i < population; ++i) {
        events.push_back(std::make_unique<SelfRescheduler>(
            eq, &rng, &remaining));
        eq.schedule(events.back().get(), 1 + rng.below(97));
    }
    auto start = Clock::now();
    eq.run();
    double secs = secondsSince(start);
    return double(eq.numProcessed()) / secs;
}

/** churn: random schedule/deschedule/reschedule/step ops.
 *  @return kernel operations per second. */
double
runChurn(std::uint64_t total_ops, std::uint32_t population)
{
    EventQueue eq;
    Random rng(7);
    struct Noop : Event
    {
        void process() override {}
        std::string name() const override { return "churn"; }
    };
    std::vector<std::unique_ptr<Noop>> events;
    for (std::uint32_t i = 0; i < population; ++i)
        events.push_back(std::make_unique<Noop>());

    auto start = Clock::now();
    for (std::uint64_t op = 0; op < total_ops; ++op) {
        Event *ev = events[rng.below(population)].get();
        std::uint64_t dice = rng.below(100);
        if (dice < 40) {
            eq.reschedule(ev, eq.curTick() + 1 + rng.below(997));
        } else if (dice < 60) {
            if (ev->scheduled())
                eq.deschedule(ev);
        } else {
            eq.step();
        }
    }
    eq.run();
    double secs = secondsSince(start);
    return double(total_ops) / secs;
}

/** sweep: the golden-test quick matrix end to end (serially, so the
 *  wall clock measures the kernel and models, not the thread pool).
 *  @return {events per second, total events}. */
std::pair<double, std::uint64_t>
runSweepQuick(double scale)
{
    const std::vector<systems::SystemKind> kinds = {
        systems::SystemKind::dramLess,
        systems::SystemKind::integratedSlc,
        systems::SystemKind::hetero,
    };
    const bench::Models models =
        bench::polybenchModels(scale, {"gemver", "doitg"});
    const systems::SystemOptions opts;
    std::uint64_t events = 0;
    auto start = Clock::now();
    for (auto kind : kinds) {
        for (const auto &model : models) {
            auto sys = systems::SystemFactory::create(kind, opts);
            systems::RunResult r = sys->run(*model);
            events += r.eventsProcessed;
        }
    }
    double secs = secondsSince(start);
    return {double(events) / secs, events};
}

/** Scaling curve of the sharded kernel on the co-simulated 4-node
 *  serving fleet (the multi-node workload PDES was built for). */
struct PdesMetrics
{
    /** Events/sec at 1, 2 and 4 kernel workers (same event count —
     *  the run is bit-identical across worker counts). */
    double s1Eps = 0.0;
    double s2Eps = 0.0;
    double s4Eps = 0.0;
    /** Wall-clock speedup of 4 workers over the serial kernel. */
    double speedup4 = 0.0;
    /** Deterministic totals of one run. */
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
};

/**
 * pdes: N requests through 4 co-simulated DRAM-less nodes behind a
 * jsq dispatcher, at 1/2/4 kernel workers. The event total is
 * identical at every worker count (conservative PDES is
 * deterministic), so events/sec differences are pure wall clock.
 * Worker counts are forced — not clamped to the host — so the curve
 * is comparable across machines; host_cores in the JSON says whether
 * the machine could actually exploit it.
 */
PdesMetrics
runPdesScaling(int reps, bool quick)
{
    serve::CoSimConfig cfg;
    cfg.fleet.numNodes = 4;
    cfg.fleet.queueCapacity = 8;
    cfg.fleet.policy = serve::DispatchPolicy::joinShortestQueue;
    cfg.node.numPes = 4;
    cfg.node.seed = 13;
    std::vector<std::shared_ptr<const workload::WorkloadModel>> mix =
        {workload::modelFor(workload::Polybench::byName("gemver"))
             ->scaled(0.004),
         workload::modelFor(workload::Polybench::byName("trisolv"))
             ->scaled(0.004)};

    serve::ArrivalConfig ac;
    ac.numRequests = quick ? 48 : 192;
    ac.ratePerSec = 40000.0;
    ac.seed = 13;
    ac.mixWeights = {2.0, 1.0};
    auto schedule = serve::PoissonArrivals(ac).generate();

    PdesMetrics m;
    double wall1 = 0.0, wall4 = 0.0;
    auto measure = [&](unsigned shards, double *eps, double *wall) {
        cfg.node.shards = shards;
        serve::CoSimFleet fleet(cfg, mix);
        double best = 0.0;
        for (int i = 0; i < reps; ++i) {
            auto start = Clock::now();
            fleet.run(schedule);
            double secs = secondsSince(start);
            double rate =
                double(fleet.kernelStats().events) / secs;
            if (rate > best) {
                best = rate;
                *wall = secs;
            }
        }
        m.events = fleet.kernelStats().events;
        m.windows = fleet.kernelStats().windows;
        *eps = best;
    };
    double wall2 = 0.0;
    measure(1, &m.s1Eps, &wall1);
    measure(2, &m.s2Eps, &wall2);
    measure(4, &m.s4Eps, &wall4);
    m.speedup4 = wall4 > 0.0 ? wall1 / wall4 : 0.0;
    return m;
}

unsigned
hostCores()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** @return best (max) of @p reps calls to @p f. */
template <typename F>
double
bestOf(int reps, F &&f)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i)
        best = std::max(best, f());
    return best;
}

std::uint64_t
peakRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return std::uint64_t(ru.ru_maxrss);
}

/** Extract the number following "key": in a JSON file we wrote
 *  ourselves (flat metric object; no nested duplicates of the key). */
bool
extractNumber(const std::string &text, const std::string &key,
              double *out)
{
    std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    const char *p = text.c_str() + pos + needle.size();
    char *end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p)
        return false;
    *out = v;
    return true;
}

struct Metrics
{
    double steadyEps = 0.0;
    double churnOps = 0.0;
    double sweepEps = 0.0;
    std::uint64_t sweepEvents = 0;
    PdesMetrics pdes;
};

void
writeJson(std::ostream &os, const Metrics &m, bool quick)
{
    json::JsonWriter w(os);
    w.beginObject();
    w.keyValue("bench", "micro_kernel");
    w.keyValue("quick", quick);
    w.keyValue("host_cores", std::uint64_t(hostCores()));
    w.key("metrics");
    w.beginObject();
    w.keyValue("steady_events_per_sec", m.steadyEps);
    w.keyValue("churn_ops_per_sec", m.churnOps);
    w.keyValue("sweep_events_per_sec", m.sweepEps);
    w.keyValue("sweep_events", m.sweepEvents);
    w.keyValue("pdes_s1_events_per_sec", m.pdes.s1Eps);
    w.keyValue("pdes_s2_events_per_sec", m.pdes.s2Eps);
    w.keyValue("pdes_s4_events_per_sec", m.pdes.s4Eps);
    w.keyValue("pdes_speedup_s4", m.pdes.speedup4);
    w.keyValue("pdes_events", m.pdes.events);
    w.keyValue("pdes_windows", m.pdes.windows);
    w.keyValue("peak_rss_kib", peakRssKib());
    w.endObject();
    w.endObject();
    os << "\n";
}

int
checkAgainst(const std::string &path, const Metrics &m)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "micro_kernel: no baseline at %s; skipping "
                     "regression check\n",
                     path.c_str());
        return 0;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // Allowed fractional regression. A constant: a gate that fails
    // on host speed is mended by a better gate, not a wider bound.
    const double tol = 0.20;

    // The pdes throughput numbers time a multi-millisecond co-sim
    // run whose wall clock includes thread creation and OS
    // scheduling, so they are noisier than the tight single-thread
    // event loops above them — they get double the tolerance. The
    // deterministic pdes counters below gate the structural
    // regressions (window blow-up) at full strictness instead.
    struct Check
    {
        const char *key;
        double now;
        double tolScale;
    } checks[] = {
        {"steady_events_per_sec", m.steadyEps, 1.0},
        {"churn_ops_per_sec", m.churnOps, 1.0},
        {"sweep_events_per_sec", m.sweepEps, 1.0},
        {"pdes_s1_events_per_sec", m.pdes.s1Eps, 2.0},
        {"pdes_s4_events_per_sec", m.pdes.s4Eps, 2.0},
    };
    int rc = 0;
    for (const auto &c : checks) {
        double base = 0.0;
        if (!extractNumber(text, c.key, &base) || base <= 0.0) {
            std::fprintf(stderr,
                         "micro_kernel: baseline lacks %s; skipped\n",
                         c.key);
            continue;
        }
        double ctol = tol * c.tolScale;
        double ratio = c.now / base;
        std::printf("%-24s %12.3e vs baseline %12.3e  (%.2fx)\n",
                    c.key, c.now, base, ratio);
        if (ratio < 1.0 - ctol) {
            std::fprintf(stderr,
                         "micro_kernel: %s regressed %.1f%% "
                         "(tolerance %.0f%%)\n",
                         c.key, (1.0 - ratio) * 100.0, ctol * 100.0);
            rc = 1;
        }
    }

    // Deterministic counters: identical on every run of the same
    // binary, so a structural regression shows up here long before
    // wall-clock noise could trip the throughput gates. Gate each
    // count upward: more sweep heap pops means the coalescing
    // regressed; more pdes events or synchronization windows for
    // the same request schedule means the lookahead shrank or the
    // window protocol degenerated toward lockstep — the
    // shard-efficiency collapse that is machine-independent.
    struct CountCheck
    {
        const char *key;
        double now;
        const char *blame;
    } counts[] = {
        {"sweep_events", double(m.sweepEvents),
         "coalescing regression?"},
        {"pdes_events", double(m.pdes.events),
         "co-sim event blow-up?"},
        {"pdes_windows", double(m.pdes.windows),
         "lookahead/window-protocol regression?"},
    };
    for (const auto &c : counts) {
        double base = 0.0;
        if (!extractNumber(text, c.key, &base) || base <= 0.0) {
            std::fprintf(stderr,
                         "micro_kernel: baseline lacks %s; skipped\n",
                         c.key);
            continue;
        }
        double ratio = c.now / base;
        std::printf("%-24s %12.3e vs baseline %12.3e  (%.2fx)\n",
                    c.key, c.now, base, ratio);
        if (ratio > 1.0 + tol) {
            std::fprintf(stderr,
                         "micro_kernel: %s blew up %.1f%% "
                         "(tolerance %.0f%%) — %s\n",
                         c.key, (ratio - 1.0) * 100.0, tol * 100.0,
                         c.blame);
            rc = 1;
        }
    }

    // Shard-scaling efficiency gate. Comparable only when both the
    // baseline machine and this one have the cores to scale on: a
    // 1-core container legitimately measures speedup ~1.0 at forced
    // 4 workers, and gating that against a 4-core baseline (or vice
    // versa) would only measure the hardware. When both sides have
    // >= 4 cores, a 4-worker speedup collapsing below the baseline
    // by more than the tolerance fails — that is the "parallel
    // kernel quietly serialized" regression this gate exists for.
    double base_cores = 0.0, base_speedup = 0.0;
    if (extractNumber(text, "host_cores", &base_cores) &&
        extractNumber(text, "pdes_speedup_s4", &base_speedup) &&
        base_cores >= 4.0 && hostCores() >= 4 &&
        base_speedup > 0.0) {
        double ratio = m.pdes.speedup4 / base_speedup;
        std::printf("%-24s %12.3f vs baseline %12.3f  (%.2fx)\n",
                    "pdes_speedup_s4", m.pdes.speedup4,
                    base_speedup, ratio);
        if (ratio < 1.0 - tol) {
            std::fprintf(stderr,
                         "micro_kernel: 4-shard scaling collapsed "
                         "%.1f%% (%.2fx -> %.2fx, tolerance "
                         "%.0f%%)\n",
                         (1.0 - ratio) * 100.0, base_speedup,
                         m.pdes.speedup4, tol * 100.0);
            rc = 1;
        }
    }
    return rc;
}

} // anonymous namespace
} // namespace dramless

int
main(int argc, char **argv)
{
    using namespace dramless;

    bool quick = false;
    std::string baseline;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check-against") == 0 &&
                   i + 1 < argc) {
            baseline = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] "
                         "[--check-against BENCH.json]\n",
                         argv[0]);
            return 2;
        }
    }

    setQuiet(true);
    const int reps = quick ? 3 : 5;
    const std::uint64_t steadyTotal = quick ? 2'000'000 : 10'000'000;
    const std::uint64_t churnOps = quick ? 2'000'000 : 10'000'000;
    const double sweepScale = quick ? 0.02 : 0.05;

    Metrics m;
    m.steadyEps =
        bestOf(reps, [&] { return runSteady(steadyTotal, 64); });
    std::printf("steady  %12.3e events/sec\n", m.steadyEps);
    m.churnOps =
        bestOf(reps, [&] { return runChurn(churnOps, 4096); });
    std::printf("churn   %12.3e ops/sec\n", m.churnOps);
    double sweepBest = 0.0;
    std::uint64_t sweepEvents = 0;
    for (int i = 0; i < reps; ++i) {
        auto [eps, events] = runSweepQuick(sweepScale);
        sweepBest = std::max(sweepBest, eps);
        sweepEvents = events;
    }
    m.sweepEps = sweepBest;
    m.sweepEvents = sweepEvents;
    std::printf("sweep   %12.3e events/sec (%llu events)\n",
                m.sweepEps, (unsigned long long)m.sweepEvents);
    m.pdes = runPdesScaling(reps, quick);
    std::printf("pdes    %12.3e / %12.3e / %12.3e events/sec "
                "(1/2/4 shards, %llu events, %llu windows, "
                "s4 speedup %.2fx, %u cores)\n",
                m.pdes.s1Eps, m.pdes.s2Eps, m.pdes.s4Eps,
                (unsigned long long)m.pdes.events,
                (unsigned long long)m.pdes.windows,
                m.pdes.speedup4, hostCores());
    std::printf("peakRSS %12llu KiB\n",
                (unsigned long long)peakRssKib());

    if (const char *out = std::getenv("DRAMLESS_OUT_JSON")) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "micro_kernel: cannot write %s\n",
                         out);
            return 1;
        }
        writeJson(os, m, quick);
    } else {
        writeJson(std::cout, m, quick);
    }

    if (!baseline.empty())
        return checkAgainst(baseline, m);
    return 0;
}
