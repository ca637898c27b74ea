/**
 * @file
 * Figure 16: execution-time decomposition of every system — host
 * software stack, PCIe transfer, storage stalls, computation — as
 * fractions of end-to-end time, averaged over Polybench and shown
 * per workload for the extremes.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

namespace
{

struct Fractions
{
    double host = 0, pcie = 0, storage = 0, compute = 0;
};

Fractions
fractionsOf(const systems::RunResult &r)
{
    double t = double(r.execTime);
    return {double(r.hostStackTime) / t, double(r.transferTime) / t,
            double(r.storageStallTime) / t,
            double(r.computeTime) / t};
}

} // anonymous namespace

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    std::printf("Figure 16: execution time decomposition "
                "(scale %.2f)\n\n",
                scale);

    auto kinds = systems::SystemFactory::evaluationOrder();
    bench::ResultMatrix m = bench::runMatrix(kinds, opts, scale);

    auto sink = bench::makeSink(
        "fig16_exec_time",
        "Figure 16: execution time decomposition", scale);
    sink.add(m);

    std::printf("averaged over the suite (%% of execution time):\n");
    std::printf("%-22s %8s %8s %8s %8s %12s\n", "system", "host",
                "PCIe", "storage", "compute", "exec ms (gm)");
    std::printf("%.*s\n", 72,
                "--------------------------------------------------"
                "----------------------");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        Fractions sum;
        std::vector<double> exec_ms;
        for (const auto &spec : workload::Polybench::all()) {
            Fractions f = fractionsOf(m.at(label).at(spec.name));
            sum.host += f.host;
            sum.pcie += f.pcie;
            sum.storage += f.storage;
            sum.compute += f.compute;
            exec_ms.push_back(
                toMs(m.at(label).at(spec.name).execTime));
        }
        double n = double(workload::Polybench::all().size());
        std::printf("%-22s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %12.2f\n",
                    label, 100 * sum.host / n, 100 * sum.pcie / n,
                    100 * sum.storage / n, 100 * sum.compute / n,
                    stats::geomean(exec_ms));
        sink.metric(std::string(label) + "/exec_ms_geomean",
                    stats::geomean(exec_ms));
        sink.metric(std::string(label) + "/host_fraction",
                    sum.host / n);
        sink.metric(std::string(label) + "/storage_fraction",
                    sum.storage / n);
    }

    std::printf("\nper-workload decomposition for a write-heavy "
                "kernel (doitg), in ms:\n");
    std::printf("%-22s %8s %8s %8s %8s %8s\n", "system", "host",
                "PCIe", "storage", "compute", "total");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &r = m.at(label).at("doitg");
        std::printf("%-22s %8.2f %8.2f %8.2f %8.2f %8.2f\n", label,
                    toMs(r.hostStackTime), toMs(r.transferTime),
                    toMs(r.storageStallTime), toMs(r.computeTime),
                    toMs(r.execTime));
    }
    std::printf("\npaper shapes: Heterodirect trims up to 16%% off "
                "Hetero; Integrated-* spend more\ncycles on flash "
                "than on computation; DRAM-less cuts storage time "
                "~51%% vs Integrated-SLC.\n");
    sink.exportFromEnv();
    return 0;
}
