/**
 * @file
 * Figure 17: energy decomposition of every system over Polybench.
 * Headline: DRAM-less consumes ~19% of the energy of the advanced
 * (peer-to-peer DMA) accelerated systems, and ~24% of PAGE-buffer
 * ("76% less energy").
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    std::printf("Figure 17: energy decomposition (scale %.2f)\n\n",
                scale);

    auto kinds = systems::SystemFactory::evaluationOrder();
    bench::ResultMatrix m = bench::runMatrix(kinds, opts, scale);

    auto sink = bench::makeSink(
        "fig17_energy", "Figure 17: energy decomposition", scale);
    sink.add(m);

    std::printf("suite totals in mJ:\n");
    std::printf("%-22s %8s %8s %8s %8s %8s %8s %9s\n", "system",
                "host", "PCIe", "cores", "DRAM", "media", "ctrl",
                "total");
    std::printf("%.*s\n", 84,
                "--------------------------------------------------"
                "----------------------------------");
    std::map<std::string, double> totals;
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        energy::EnergyBreakdown sum;
        for (const auto &spec : workload::Polybench::all())
            sum += m.at(label).at(spec.name).energy;
        totals[label] = sum.total();
        sink.metric(std::string(label) + "/suite_energy_j",
                    sum.total());
        std::printf("%-22s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f"
                    " %9.1f\n",
                    label, sum.hostStack * 1e3, sum.pcie * 1e3,
                    sum.accelCores * 1e3, sum.dram * 1e3,
                    sum.storageMedia * 1e3, sum.controller * 1e3,
                    sum.total() * 1e3);
    }

    std::printf("\nheadline ratios                     measured   "
                "paper\n");
    std::printf("  DRAM-less / Heterodirect          %8.2f   0.19\n",
                totals["DRAM-less"] / totals["Heterodirect"]);
    std::printf("  DRAM-less / Heterodirect-PRAM     %8.2f   0.19\n",
                totals["DRAM-less"] / totals["Heterodirect-PRAM"]);
    std::printf("  DRAM-less / PAGE-buffer           %8.2f   0.24\n",
                totals["DRAM-less"] / totals["PAGE-buffer"]);
    std::printf("  DRAM-less / Hetero                %8.2f   ~0.11\n",
                totals["DRAM-less"] / totals["Hetero"]);

    std::printf("\nper-workload total energy (mJ), read- vs "
                "write-intensive extremes:\n");
    std::printf("%-22s %10s %10s\n", "system", "gemver", "doitg");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        std::printf("%-22s %10.2f %10.2f\n", label,
                    m.at(label).at("gemver").energy.total() * 1e3,
                    m.at(label).at("doitg").energy.total() * 1e3);
    }

    sink.metric("ratio_dramless_over_heterodirect",
                totals["DRAM-less"] / totals["Heterodirect"]);
    sink.metric("ratio_dramless_over_heterodirect_pram",
                totals["DRAM-less"] / totals["Heterodirect-PRAM"]);
    sink.metric("ratio_dramless_over_pagebuffer",
                totals["DRAM-less"] / totals["PAGE-buffer"]);
    sink.metric("ratio_dramless_over_hetero",
                totals["DRAM-less"] / totals["Hetero"]);
    sink.exportFromEnv();
    return 0;
}
