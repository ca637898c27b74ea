/**
 * @file
 * Scale-sensitivity check: the reproduction runs scaled-down data
 * volumes (the paper used multi-GB runs), so the methodology relies
 * on the headline *ratios* being stable across scale. This bench
 * sweeps the volume scale and reports the key Figure 15 ratios at
 * each point; all (scale, system, workload) runs execute as one
 * parallel sweep.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

int
main()
{
    setQuiet(true);
    const char *kernels[] = {"gemver", "doitg", "trmm", "durbin"};
    const systems::SystemKind kinds[] = {
        systems::SystemKind::hetero,
        systems::SystemKind::heterodirect,
        systems::SystemKind::integratedSlc,
        systems::SystemKind::dramLess,
    };
    const double scales[] = {0.1, 0.25, 0.5};

    std::vector<runner::SweepJob> jobs;
    const systems::SystemOptions opts;
    for (double scale : scales) {
        const bench::Models models = bench::polybenchModels(
            scale, {std::begin(kernels), std::end(kernels)});
        for (auto kind : kinds) {
            for (const auto &model : models) {
                auto job = runner::makeJob(kind, model, opts);
                // Distinguish scales in the progress line.
                job.system = std::string(
                                 systems::SystemFactory::label(kind)) +
                             "@" + std::to_string(scale);
                jobs.push_back(std::move(job));
            }
        }
    }
    std::vector<systems::RunResult> results = bench::runJobs(jobs);

    auto sink = bench::makeSink(
        "ablation_scale",
        "Scale sensitivity of the headline ratios", 1.0);

    std::printf("Scale sensitivity of the headline ratios "
                "(geomean over gemver/doitg/trmm/durbin)\n\n");
    std::printf("%-8s %16s %16s %16s\n", "scale", "DL/Hetero",
                "DL/Heterodirect", "DL/Int-SLC");
    std::printf("%.*s\n", 58,
                "--------------------------------------------------"
                "--------");

    std::size_t idx = 0;
    for (double scale : scales) {
        std::map<std::string, std::map<std::string, double>> bw;
        for (auto kind : kinds) {
            const char *label = systems::SystemFactory::label(kind);
            for (const char *wl : kernels)
                bw[label][wl] = results[idx++].bandwidthMBps;
        }
        auto ratio = [&](const char *a, const char *b) {
            std::vector<double> r;
            for (const char *wl : kernels)
                r.push_back(bw[a][wl] / bw[b][wl]);
            return stats::geomean(r);
        };
        double dl_hetero = ratio("DRAM-less", "Hetero");
        double dl_hd = ratio("DRAM-less", "Heterodirect");
        double dl_slc = ratio("DRAM-less", "Integrated-SLC");
        std::printf("%-8.2f %16.2f %16.2f %16.2f\n", scale,
                    dl_hetero, dl_hd, dl_slc);
        char key[64];
        std::snprintf(key, sizeof(key), "scale_%g", scale);
        sink.metric(std::string(key) + "/dl_over_hetero", dl_hetero);
        sink.metric(std::string(key) + "/dl_over_heterodirect",
                    dl_hd);
        sink.metric(std::string(key) + "/dl_over_integrated_slc",
                    dl_slc);
    }
    std::printf("\nstable ratios across scale justify running the "
                "reproduction at reduced volumes\n(buffer capacities "
                "scale with the workload to preserve data:buffer "
                "ratios).\n");
    sink.exportFromEnv();
    return 0;
}
