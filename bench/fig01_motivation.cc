/**
 * @file
 * Figure 1: performance degradation and energy overhead of a
 * conventional accelerated system (accelerator + SSD through PCIe)
 * against an idealized environment with all data resident in the
 * accelerator. The paper reports up to 74% performance degradation
 * and ~9x the energy, averaged over data-intensive workloads.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    std::printf("Figure 1: conventional accelerated system vs "
                "ideal (scale %.2f)\n\n",
                scale);
    std::printf("%-8s %18s %18s\n", "kernel", "norm. performance",
                "norm. energy");
    std::printf("%.*s\n", 46,
                "------------------------------------------------");

    bench::ResultMatrix m = bench::runMatrix(
        {systems::SystemKind::ideal, systems::SystemKind::hetero},
        opts, scale);
    auto sink = bench::makeSink(
        "fig01_motivation",
        "Figure 1: conventional accelerated system vs ideal", scale);
    sink.add(m);

    std::vector<double> perf, energy;
    for (const auto &spec : workload::Polybench::all()) {
        const auto &ideal = m.at("Ideal").at(spec.name);
        const auto &hetero = m.at("Hetero").at(spec.name);
        double p = hetero.bandwidthMBps / ideal.bandwidthMBps;
        double e = hetero.energy.total() / ideal.energy.total();
        perf.push_back(p);
        energy.push_back(e);
        std::printf("%-8s %17.2f%% %17.1fx\n", spec.name.c_str(),
                    p * 100.0, e);
    }
    std::printf("%.*s\n", 46,
                "------------------------------------------------");
    std::printf("%-8s %17.2f%% %17.1fx\n", "geomean",
                stats::geomean(perf) * 100.0,
                stats::geomean(energy));
    std::printf("\npaper: performance degrades by as much as 74%% "
                "(i.e. to ~26%% of ideal);\n"
                "energy is ~9x the ideal system, on average.\n");

    sink.metric("gm_perf_vs_ideal", stats::geomean(perf));
    sink.metric("gm_energy_vs_ideal", stats::geomean(energy));
    sink.exportFromEnv();
    return 0;
}
