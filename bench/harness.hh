/**
 * @file
 * Shared helpers for the figure/table regeneration binaries: parallel
 * run matrices over (system, workload) via runner::SweepRunner,
 * aligned table printing, and the environment knobs
 * (DRAMLESS_SCALE, DRAMLESS_JOBS, DRAMLESS_OUT_JSON/CSV).
 */

#ifndef DRAMLESS_BENCH_HARNESS_HH
#define DRAMLESS_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/dramless.hh"

namespace dramless
{
namespace bench
{

/**
 * Workload-volume scale: DRAMLESS_SCALE (one positive number),
 * @p fallback when unset or malformed. Read it before
 * defaultOptions(), which quiets the warning a malformed value gets.
 */
inline double
scaleFromEnv(double fallback = 0.25)
{
    return runner::scaleFromEnv(fallback);
}

/** Default options for the reproduction runs. */
inline systems::SystemOptions
defaultOptions()
{
    setQuiet(true);
    return systems::SystemOptions{};
}

/** Shared, immutable workload models. */
using Models = std::vector<std::shared_ptr<const workload::WorkloadModel>>;

/** @return @p models, each scaled to @p scale once (at scale 1, the
 *  models as built). */
inline Models
scaled(Models models, double scale)
{
    if (scale != 1.0) {
        for (auto &m : models)
            m = m->scaled(scale);
    }
    return models;
}

/** The Polybench kernels @p names, in that order (all fifteen when
 *  empty), at @p scale. */
inline Models
polybenchModels(double scale, std::vector<std::string> names = {})
{
    if (names.empty()) {
        for (const auto &spec : workload::Polybench::all())
            names.push_back(spec.name);
    }
    Models models;
    for (const auto &name : names)
        models.push_back(
            workload::modelFor(workload::Polybench::byName(name)));
    return scaled(std::move(models), scale);
}

/** Results keyed by (system label, workload name). */
using ResultMatrix = runner::ResultMatrix;

/**
 * Run @p jobs on the shared thread pool (DRAMLESS_JOBS workers, one
 * per hardware thread when unset) and return results in job order.
 */
inline std::vector<systems::RunResult>
runJobs(const std::vector<runner::SweepJob> &jobs,
        bool progress = true)
{
    runner::SweepRunner pool(runner::jobsFromEnv());
    return pool.run(jobs,
                    progress ? runner::stderrProgress() : nullptr);
}

/** Run @p kinds x the full Polybench suite at @p scale (in
 *  parallel). */
inline ResultMatrix
runMatrix(const std::vector<systems::SystemKind> &kinds,
          const systems::SystemOptions &opts, double scale,
          bool progress = true)
{
    auto jobs =
        runner::makeMatrixJobs(kinds, polybenchModels(scale), opts);
    ResultMatrix out;
    std::vector<systems::RunResult> results =
        runJobs(jobs, progress);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out[jobs[i].system][jobs[i].workload] = results[i];
    return out;
}

/**
 * A ResultSink named after the binary, stamped with the run scale.
 * Finish with sink.exportFromEnv() to honor DRAMLESS_OUT_JSON/CSV.
 */
inline runner::ResultSink
makeSink(const std::string &name, const std::string &description,
         double scale)
{
    runner::ResultSink sink(name, description);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", scale);
    sink.label("workload_scale", buf);
    return sink;
}

/** Print one row of right-aligned numeric cells. */
inline void
printRow(const std::string &head,
         const std::vector<double> &cells, const char *fmt = "%9.2f")
{
    std::printf("%-22s", head.c_str());
    for (double v : cells)
        std::printf(fmt, v);
    std::printf("\n");
}

/** Print a header row of column labels. */
inline void
printHeader(const std::string &head,
            const std::vector<std::string> &cols, int width = 9)
{
    std::printf("%-22s", head.c_str());
    for (const auto &c : cols)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

/** Column labels: the fifteen workloads. */
inline std::vector<std::string>
workloadColumns()
{
    std::vector<std::string> cols;
    for (const auto &spec : workload::Polybench::all())
        cols.push_back(spec.name);
    return cols;
}

/** Geometric mean over all workloads of @p f(result). */
template <typename F>
double
geomeanOver(const std::map<std::string, systems::RunResult> &row,
            F &&f)
{
    std::vector<double> vals;
    for (const auto &[_, r] : row)
        vals.push_back(f(r));
    return stats::geomean(vals);
}

/** Render a time series as a compact two-row text sparkline. */
inline void
printSeries(const std::string &label, const stats::TimeSeries &ts,
            std::size_t points, double scale_to = 0.0)
{
    auto pts = ts.downsample(points);
    double peak = 1e-12;
    for (const auto &p : pts)
        peak = std::max(peak, p.value);
    if (scale_to > 0.0)
        peak = scale_to;
    static const char *glyphs[] = {" ", ".", ":", "-", "=", "+",
                                   "*", "#", "%", "@"};
    std::printf("%-22s|", label.c_str());
    for (const auto &p : pts) {
        int level = int(p.value / peak * 9.0 + 0.5);
        level = std::max(0, std::min(9, level));
        std::printf("%s", glyphs[level]);
    }
    std::printf("| peak %.2f\n", peak);
}

} // namespace bench
} // namespace dramless

#endif // DRAMLESS_BENCH_HARNESS_HH
