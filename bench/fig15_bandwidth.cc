/**
 * @file
 * Figure 15: data-processing throughput of the ten accelerated
 * systems across Polybench, normalized to Hetero. Headline claims:
 * DRAM-less averages +93% over Hetero and +47% over Heterodirect;
 * Heterodirect +25% over Hetero; DRAM-less +25% over DRAM-less
 * (firmware); PAGE-buffer well above Integrated-SLC.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    std::printf("Figure 15: throughput normalized to Hetero "
                "(scale %.2f)\n\n",
                scale);

    auto kinds = systems::SystemFactory::evaluationOrder();
    kinds.push_back(systems::SystemKind::dramLessFirmware);
    bench::ResultMatrix m = bench::runMatrix(kinds, opts, scale);

    const auto &hetero = m.at("Hetero");
    bench::printHeader("system \\ workload", bench::workloadColumns(),
                       8);
    std::printf("%.*s\n", 142,
                "--------------------------------------------------"
                "--------------------------------------------------"
                "------------------------------------------");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &row = m.at(label);
        std::vector<double> cells;
        std::vector<double> norm;
        for (const auto &spec : workload::Polybench::all()) {
            double v = row.at(spec.name).bandwidthMBps /
                       hetero.at(spec.name).bandwidthMBps;
            cells.push_back(v);
            norm.push_back(v);
        }
        std::printf("%-22s", label);
        for (double v : cells)
            std::printf("%8.2f", v);
        std::printf("  | gm %.2f\n", stats::geomean(norm));
    }

    auto sink = bench::makeSink(
        "fig15_bandwidth",
        "Figure 15: throughput normalized to Hetero", scale);
    sink.add(m);

    // Headline ratios.
    auto gm = [&](const char *a, const char *b) {
        std::vector<double> r;
        for (const auto &spec : workload::Polybench::all())
            r.push_back(m.at(a).at(spec.name).bandwidthMBps /
                        m.at(b).at(spec.name).bandwidthMBps);
        return stats::geomean(r);
    };
    std::printf("\nheadline ratios (geomean)        measured   "
                "paper\n");
    std::printf("  DRAM-less / Hetero             %8.2f   1.93\n",
                gm("DRAM-less", "Hetero"));
    std::printf("  DRAM-less / Heterodirect       %8.2f   1.47\n",
                gm("DRAM-less", "Heterodirect"));
    std::printf("  Heterodirect / Hetero          %8.2f   1.25\n",
                gm("Heterodirect", "Hetero"));
    std::printf("  DRAM-less / DRAM-less(fw)      %8.2f   1.25\n",
                gm("DRAM-less", "DRAM-less (firmware)"));
    std::printf("  DRAM-less / PAGE-buffer        %8.2f   1.64\n",
                gm("DRAM-less", "PAGE-buffer"));
    std::printf("  DRAM-less / Integrated-SLC     %8.2f   1.80\n",
                gm("DRAM-less", "Integrated-SLC"));
    std::printf("  Integrated-SLC / NOR-intf      %8.2f   1.37\n",
                gm("Integrated-SLC", "NOR-intf"));

    // Memory-intensive subset (paper: +149% over PAGE-buffer).
    std::vector<double> mem;
    for (const char *w : {"durbin", "dynpro", "jaco1D", "regd"}) {
        mem.push_back(m.at("DRAM-less").at(w).bandwidthMBps /
                      m.at("PAGE-buffer").at(w).bandwidthMBps);
    }
    std::printf("  DRAM-less / PAGE-buffer on memory-intensive"
                " (durbin,dynpro,jaco1D,regd): %.2f (paper 2.49)\n",
                stats::geomean(mem));

    sink.metric("gm_dramless_over_hetero", gm("DRAM-less", "Hetero"));
    sink.metric("gm_dramless_over_heterodirect",
                gm("DRAM-less", "Heterodirect"));
    sink.metric("gm_heterodirect_over_hetero",
                gm("Heterodirect", "Hetero"));
    sink.metric("gm_dramless_over_firmware",
                gm("DRAM-less", "DRAM-less (firmware)"));
    sink.metric("gm_dramless_over_pagebuffer",
                gm("DRAM-less", "PAGE-buffer"));
    sink.metric("gm_dramless_over_integrated_slc",
                gm("DRAM-less", "Integrated-SLC"));
    sink.metric("gm_dramless_over_pagebuffer_memintensive",
                stats::geomean(mem));
    sink.exportFromEnv();
    return 0;
}
