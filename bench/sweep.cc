/**
 * @file
 * One-shot evaluation driver: runs the full (system x workload)
 * matrix behind Figures 15-17 — the ten evaluated organizations of
 * Table I plus the firmware-managed variant, across all of Polybench
 * — on the SweepRunner thread pool, prints a bandwidth summary, and
 * exports the complete result set.
 *
 * Environment knobs:
 *   DRAMLESS_SCALE     workload volume scale (default 0.25)
 *   DRAMLESS_JOBS      worker threads (default: hardware threads)
 *   DRAMLESS_OUT_JSON  write the full result set as JSON ("-"=stdout)
 *   DRAMLESS_OUT_CSV   write the per-run scalar table as CSV
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    auto kinds = systems::SystemFactory::evaluationOrder();
    kinds.push_back(systems::SystemKind::dramLessFirmware);

    auto jobs = runner::makeMatrixJobs(
        kinds, bench::polybenchModels(scale), opts);
    runner::SweepRunner pool(runner::jobsFromEnv());
    std::printf("sweep: %zu runs (%zu systems x %zu workloads), "
                "%u worker%s, scale %.2f\n\n",
                jobs.size(), kinds.size(),
                workload::Polybench::all().size(), pool.numWorkers(),
                pool.numWorkers() == 1 ? "" : "s",
                scale);

    std::vector<systems::RunResult> results =
        pool.run(jobs, runner::stderrProgress());

    auto sink = bench::makeSink(
        "sweep", "Full evaluation matrix (Figures 15-17)", scale);
    for (const auto &r : results)
        sink.add(r);
    runner::ResultMatrix m = sink.matrix();

    const auto &hetero = m.at("Hetero");
    bench::printHeader("bandwidth vs Hetero", bench::workloadColumns(),
                       8);
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &row = m.at(label);
        std::vector<double> norm;
        std::printf("%-22s", label);
        for (const auto &spec : workload::Polybench::all()) {
            double v = row.at(spec.name).bandwidthMBps /
                       hetero.at(spec.name).bandwidthMBps;
            norm.push_back(v);
            std::printf("%8.2f", v);
        }
        double gm = stats::geomean(norm);
        std::printf("  | gm %.2f\n", gm);
        sink.metric(std::string(label) + "/gm_bandwidth_vs_hetero",
                    gm);
    }

    std::printf("\nsuite geomean exec ms / total energy mJ:\n");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        std::vector<double> exec_ms;
        double energy = 0.0;
        for (const auto &spec : workload::Polybench::all()) {
            exec_ms.push_back(toMs(m.at(label).at(spec.name).execTime));
            energy += m.at(label).at(spec.name).energy.total();
        }
        std::printf("  %-22s %10.2f %12.1f\n", label,
                    stats::geomean(exec_ms), energy * 1e3);
        sink.metric(std::string(label) + "/gm_exec_ms",
                    stats::geomean(exec_ms));
        sink.metric(std::string(label) + "/suite_energy_j", energy);
    }

    sink.exportFromEnv();
    return 0;
}
