/**
 * @file
 * Figure 7: performance degradation of managing the PRAM with
 * traditional SSD firmware (3-core 500 MHz embedded CPU) compared
 * to an oracle PRAM controller with no management overhead — the
 * motivation for hardware automation. The paper reports up to 80%
 * degradation on data-intensive workloads.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    std::printf("Figure 7: firmware-managed PRAM vs oracle "
                "controller (scale %.2f)\n\n",
                scale);
    std::printf("%-8s %14s %14s %14s\n", "kernel", "oracle MB/s",
                "firmware MB/s", "degradation");
    std::printf("%.*s\n", 54,
                "------------------------------------------------"
                "----------");

    // The oracle is the hardware-automated DRAM-less controller
    // with zero management overhead on the I/O path.
    bench::ResultMatrix m =
        bench::runMatrix({systems::SystemKind::dramLess,
                          systems::SystemKind::dramLessFirmware},
                         opts, scale);
    auto sink = bench::makeSink(
        "fig07_firmware",
        "Figure 7: firmware-managed PRAM vs oracle controller",
        scale);
    sink.add(m);

    std::vector<double> degr;
    double worst = 0.0;
    for (const auto &spec : workload::Polybench::all()) {
        const auto &oracle = m.at("DRAM-less").at(spec.name);
        const auto &fw = m.at("DRAM-less (firmware)").at(spec.name);
        double d = 1.0 - fw.bandwidthMBps / oracle.bandwidthMBps;
        degr.push_back(std::max(1e-6, d));
        worst = std::max(worst, d);
        std::printf("%-8s %14.1f %14.1f %13.1f%%\n",
                    spec.name.c_str(), oracle.bandwidthMBps,
                    fw.bandwidthMBps, d * 100.0);
    }
    double sum = 0;
    for (double d : degr)
        sum += d;
    std::printf("%.*s\n", 54,
                "------------------------------------------------"
                "----------");
    std::printf("%-8s %43.1f%%\n", "mean", sum / degr.size() * 100.0);
    std::printf("%-8s %43.1f%%\n", "worst", worst * 100.0);
    std::printf("\npaper: the firmware degrades system performance "
                "by up to 80%% on the\ndata-intensive workloads, "
                "because its execution time exceeds the PRAM\n"
                "access latency and requests serialize behind it.\n");

    sink.metric("mean_degradation", sum / degr.size());
    sink.metric("worst_degradation", worst);
    sink.exportFromEnv();
    return 0;
}
