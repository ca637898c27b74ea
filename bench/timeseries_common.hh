/**
 * @file
 * Shared driver for the time-series figures: total-IPC traces
 * (Figures 18/19) and core-power / cumulative-energy captures
 * (Figures 20/21).
 */

#ifndef DRAMLESS_BENCH_TIMESERIES_COMMON_HH
#define DRAMLESS_BENCH_TIMESERIES_COMMON_HH

#include <cstdio>

#include "harness.hh"

namespace dramless
{
namespace bench
{

/** Systems compared in the time-series figures. */
inline std::vector<systems::SystemKind>
timeSeriesKinds()
{
    return {systems::SystemKind::integratedSlc,
            systems::SystemKind::integratedMlc,
            systems::SystemKind::integratedTlc,
            systems::SystemKind::pageBuffer,
            systems::SystemKind::norIntf,
            systems::SystemKind::dramLess};
}

/** Run @p kinds on Polybench kernel @p spec at @p scale
 *  concurrently, keyed by label. */
inline std::map<std::string, systems::RunResult>
runKindsOnWorkload(const std::vector<systems::SystemKind> &kinds,
                   const workload::WorkloadSpec &spec, double scale,
                   const systems::SystemOptions &opts)
{
    auto models = scaled({workload::modelFor(spec)}, scale);
    auto jobs = runner::makeMatrixJobs(kinds, models, opts);
    std::vector<systems::RunResult> results = runJobs(jobs);
    std::map<std::string, systems::RunResult> out;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out[jobs[i].system] = results[i];
    return out;
}

/** Figures 18/19: total IPC over time for workload @p name. */
inline int
ipcFigure(const char *id, const char *figure, const char *name)
{
    const double scale = scaleFromEnv();
    auto opts = defaultOptions();
    opts.sampleInterval = fromUs(10);
    std::printf("%s: total IPC (all agents) over time, %s "
                "(scale %.2f)\n\n",
                figure, name, scale);
    const auto &spec = workload::Polybench::byName(name);

    auto results =
        runKindsOnWorkload(timeSeriesKinds(), spec, scale, opts);

    auto sink = makeSink(
        id, std::string(figure) + ": total IPC over time, " + name,
        scale);
    // The series are the figure: export them at full resolution.
    sink.setSeriesPoints(0);
    for (const auto &[_, r] : results)
        sink.add(r);

    // Common time axis: plot each series against the slowest run so
    // idle (zero-IPC) gaps are visible.
    std::printf("IPC over time (60 buckets across each run; '@'=peak)"
                ":\n");
    for (auto kind : timeSeriesKinds()) {
        const char *label = systems::SystemFactory::label(kind);
        printSeries(label, results.at(label).ipc, 60);
    }

    std::printf("\nsummary:\n");
    std::printf("%-22s %10s %10s %12s %10s\n", "system", "mean IPC",
                "peak IPC", "zero-IPC %", "exec ms");
    for (auto kind : timeSeriesKinds()) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &r = results.at(label);
        double peak = 0.0;
        std::uint64_t zeros = 0;
        for (const auto &p : r.ipc.samples()) {
            peak = std::max(peak, p.value);
            zeros += p.value < 0.05 ? 1 : 0;
        }
        double zero_frac =
            double(zeros) /
            double(std::max<std::size_t>(1, r.ipc.size()));
        std::printf("%-22s %10.2f %10.2f %11.1f%% %10.2f\n", label,
                    r.ipc.mean(), peak, 100.0 * zero_frac,
                    toMs(r.execTime));
        sink.metric(std::string(label) + "/mean_ipc", r.ipc.mean());
        sink.metric(std::string(label) + "/zero_ipc_fraction",
                    zero_frac);
    }
    std::printf("\npaper shapes: page-granule systems show idle "
                "(zero-IPC) periods during storage\naccesses; "
                "DRAM-less and NOR-intf sustain nonzero IPC; "
                "DRAM-less's IPC dominates.\n");
    sink.exportFromEnv();
    return 0;
}

/** Figures 20/21: core power and cumulative energy for the first
 *  16 KiB of data processing of workload @p name. */
inline int
powerFigure(const char *id, const char *figure, const char *name)
{
    auto opts = defaultOptions();
    // First-16KiB capture: shrink the workload so the suite's
    // volumes land near 16 KiB of traffic, sampled finely.
    const auto &base = workload::Polybench::byName(name);
    double scale = 16384.0 / double(base.totalBytes());
    opts.sampleInterval = fromUs(2);

    std::printf("%s: core power and total energy, first 16 KiB of "
                "%s\n\n",
                figure, name);
    const std::vector<systems::SystemKind> kinds = {
        systems::SystemKind::integratedSlc,
        systems::SystemKind::pageBuffer,
        systems::SystemKind::norIntf,
        systems::SystemKind::dramLess,
    };

    auto results = runKindsOnWorkload(kinds, base, scale, opts);

    auto sink = makeSink(
        id, std::string(figure) +
                ": core power and total energy, first 16 KiB of " +
                name,
        scale);
    sink.setSeriesPoints(0);
    for (const auto &[_, r] : results)
        sink.add(r);

    std::printf("agent core power over time (60 buckets; "
                "'@'=10 W):\n");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        printSeries(label, results.at(label).corePower, 60, 10.0);
    }

    std::printf("\nsummary:\n");
    std::printf("%-22s %12s %12s %14s\n", "system", "mean power W",
                "exec ms", "total energy uJ");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &r = results.at(label);
        std::printf("%-22s %12.2f %12.3f %14.1f\n", label,
                    r.corePower.timeWeightedMean(), toMs(r.execTime),
                    r.energy.total() * 1e6);
        sink.metric(std::string(label) + "/mean_power_w",
                    r.corePower.timeWeightedMean());
        sink.metric(std::string(label) + "/total_energy_j",
                    r.energy.total());
    }
    std::printf("\npaper shapes: NOR-intf runs at the lowest core "
                "power (its .D units stall the\nother FUs) but takes "
                "so long that its energy exceeds DRAM-less; "
                "DRAM-less\nfinishes first at moderate power, with "
                "the lowest total energy.\n");
    sink.exportFromEnv();
    return 0;
}

} // namespace bench
} // namespace dramless

#endif // DRAMLESS_BENCH_TIMESERIES_COMMON_HH
