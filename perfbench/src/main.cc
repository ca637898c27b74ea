/**
 * @file
 * The benchmark binary. perfbench/run.py builds and invokes it:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--passes N] [--spans PATH]
 *
 * With --trace 0 it runs the workload's fixed number of timed passes
 * (--passes overrides; they stop early past 4 S seconds), samples the
 * workload's set-up between passes (setup_s is the median sample) and
 * prints every end-to-end metric. wall_s sums, over the simulation calls of a pass, each
 * call's fastest time across passes. With
 * --trace 1 it prints every per-layer metric instead (layers.cc).
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hh"
#include "sim/logging.hh"

using namespace perfbench;

namespace
{

/** Passes stop early past this many seconds at most, well inside
 *  run.py's timeout. */
constexpr double kTimeLimitS = 120.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    int passes = 0;
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--passes N] "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            haveSeed = end != val && *end == '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "0") == 0   ? 0
                      : std::strcmp(val, "1") == 0 ? 1
                                                   : -1;
        } else if (key == "--passes") {
            a.passes = std::atoi(val);
        } else if (key == "--spans") {
            a.spans = val;
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (!makeWorkload(a.workload))
        usage("--workload must be polybench_matrix, dramless_rw or "
              "serving_cosim");
    if (!haveSeed)
        usage("--seed must be a non-negative integer");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    if (a.trace < 0)
        usage("--trace must be 0 or 1");
    if (a.passes < 0)
        usage("--passes must be positive");
    return a;
}

double
peakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 && finite ? "true" : "false",
                (unsigned long long)checks.attempted,
                (unsigned long long)checks.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

void
printChecks(const Checks &checks)
{
    std::printf("failed_share %.6g (%llu failed of %llu attempted)\n",
                checks.attempted
                    ? double(checks.failed) / double(checks.attempted)
                    : 0.0,
                (unsigned long long)checks.failed,
                (unsigned long long)checks.attempted);
    for (const std::string &f : checks.failures)
        std::printf("check failed: %s\n", f.c_str());
}

/**
 * One set-up sample of @p w: the fastest of w.setupsPerSample()
 * set-ups, in seconds.
 */
double
setupSample(Workload &w, std::uint64_t seed)
{
    double fastest = 0.0;
    double buildS = 0.0;
    for (int i = 0; i < w.setupsPerSample(); ++i) {
        auto start = Clock::now();
        w.setup(seed, buildS);
        double s = secondsSince(start);
        fastest = i == 0 ? s : std::min(fastest, s);
    }
    return fastest;
}

/** Untraced run: setup samples, timed passes, end-to-end metrics. */
std::vector<Metric>
endToEnd(const Args &a, Checks &checks)
{
    std::unique_ptr<Workload> w = makeWorkload(a.workload);

    // Host speed drifts over seconds on a shared machine, so set-up
    // samples are spread over the run: one before the first pass and
    // two after every pass. The last set-up's inputs feed the passes.
    std::vector<double> setup{setupSample(*w, a.seed)};

    // wall_s sums each unit's fastest time over the passes. Other
    // tenants of a shared host slow a call down for seconds at a time
    // and never speed it up, so the fastest of several samples is the
    // steadiest estimate of the call's own cost.
    std::vector<std::vector<double>> units;
    std::uint64_t firstDigest = 0;
    PassResult last;
    // Each pass runs pinned to the next allowed CPU in turn: on a
    // shared host the cores differ in how much their neighbours load
    // them, and the fastest-of-passes estimate should see them all.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    const int passes = a.passes > 0 ? a.passes : w->passes();
    // --seconds only bounds the run: a build so slow that the fixed
    // passes would overrun it stops early and says so.
    const double limitS = std::min(4.0 * a.seconds, kTimeLimitS);
    auto start = Clock::now();
    for (int i = 0; i < passes; ++i) {
        if (cpus.size() > 1) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[std::size_t(i) % cpus.size()], &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        last = w->pass(nullptr);
        checks.merge(last.checks);
        units.resize(last.unitS.size());
        for (std::size_t u = 0; u < units.size(); ++u)
            units[u].push_back(last.unitS[u]);
        if (i == 0)
            firstDigest = last.digest;
        else
            checks.expect(last.digest == firstDigest,
                          "simulated statistics differ between passes");
        std::printf("pass %d: %.4f s, %llu events, digest %016llx\n", i,
                    last.wallS, (unsigned long long)last.events,
                    (unsigned long long)last.digest);
        std::fflush(stdout);
        for (int k = 0; k < 2; ++k)
            setup.push_back(setupSample(*w, a.seed));
        // Hand freed heap back so that peak RSS does not depend on how
        // set-ups and passes happened to fragment it.
        malloc_trim(0);
        if (i + 1 < passes && secondsSince(start) > limitS) {
            std::printf("stopped after %d of %d passes: over %g s\n", i + 1,
                        passes, limitS);
            break;
        }
    }

    sched_setaffinity(0, sizeof(allowed), &allowed);

    std::printf("digest %s seed=%llu: %016llx\n", a.workload.c_str(),
                (unsigned long long)a.seed,
                (unsigned long long)firstDigest);
    std::printf("sim_p99_us %.6g over %llu samples\n", last.p99Us,
                (unsigned long long)last.p99Samples);
    printChecks(checks);

    double wall = 0.0;
    for (const std::vector<double> &u : units)
        wall += *std::min_element(u.begin(), u.end());
    return {
        {"wall_s", wall, "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
        {"sim_bw_gm_mbps", last.bwGmMBps, "MB/s"},
        {"sim_energy_gm_mj", last.energyGmMj, "mJ"},
        {"sim_p99_us", last.p99Us, "us"},
        {"sim_goodput_ratio", last.goodputRatio, "ratio"},
    };
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    dramless::setQuiet(true);

    std::printf("provenance: build_type=%s cxx_flags=\"%s\" "
                "compiler=\"%s\" nproc=%u\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                PERFBENCH_COMPILER, std::thread::hardware_concurrency());
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                a.seconds, a.trace);

    Checks checks;
    std::vector<Metric> metrics;
    if (a.trace == 1) {
        Tracer tracer;
        metrics = tracedRun(a.workload, a.seed, checks, tracer);
        printChecks(checks);
        if (!a.spans.empty() && !tracer.writeJson(a.spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.spans.c_str());
    } else {
        metrics = endToEnd(a, checks);
    }
    for (const Metric &m : metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    printResult(checks, metrics);
    return 0;
}
