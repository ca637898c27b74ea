/**
 * @file
 * Ablations over the PRAM microarchitecture knobs DESIGN.md calls
 * out: row-buffer count (related work [60] reports multi-row
 * buffers cut latency/energy ~45%/69%), partition count (the
 * source of array-level parallelism), and program-buffer slots
 * (write concurrency). All configurations are independent, so the
 * whole ablation grid runs as one parallel sweep.
 */

#include <cstdio>

#include "harness.hh"

using namespace dramless;

namespace
{

const char *kernels[] = {"gemver", "trmm", "doitg"};

/** A DRAM-less job with an ablated geometry. */
runner::SweepJob
geometryJob(const std::string &label, const pram::PramGeometry &geom,
            std::shared_ptr<const workload::WorkloadModel> model,
            const systems::SystemOptions &base)
{
    systems::SystemOptions opts = base;
    opts.geometryOverride = geom;
    runner::SweepJob job =
        runner::makeJob(systems::SystemKind::dramLess, model, opts);
    job.system = label;
    return job;
}

/** Print one sweep section from the flat result list. */
void
printSection(const char *title, const char *knob,
             const std::vector<std::string> &row_labels,
             const std::vector<runner::SweepJob> &jobs,
             const std::vector<systems::RunResult> &results,
             runner::ResultSink &sink, std::size_t &idx)
{
    std::printf("%s\n", title);
    std::printf("%-12s %10s %10s %10s\n", knob, kernels[0],
                kernels[1], kernels[2]);
    for (const auto &row : row_labels) {
        std::printf("%-12s", row.c_str());
        for (std::size_t k = 0; k < 3; ++k) {
            double bw = results[idx].bandwidthMBps;
            sink.metric(jobs[idx].system + "/" + jobs[idx].workload +
                            "/bandwidth_mbps",
                        bw);
            std::printf(" %10.1f", bw);
            ++idx;
        }
        std::printf("\n");
    }
    std::printf("\n");
}

} // anonymous namespace

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    const bench::Models models = bench::polybenchModels(
        scale, {std::begin(kernels), std::end(kernels)});

    std::vector<runner::SweepJob> jobs;
    std::vector<std::string> rb_rows, part_rows, slot_rows;

    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        pram::PramGeometry g;
        g.numRowBuffers = n;
        rb_rows.push_back(std::to_string(n));
        for (const auto &model : models)
            jobs.push_back(geometryJob(
                "rowBuffers=" + std::to_string(n), g, model, opts));
    }
    for (std::uint32_t n : {4u, 8u, 16u, 32u}) {
        pram::PramGeometry g;
        g.partitionsPerBank = n;
        part_rows.push_back(std::to_string(n));
        for (const auto &model : models)
            jobs.push_back(geometryJob(
                "partitions=" + std::to_string(n), g, model, opts));
    }
    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        pram::PramGeometry g;
        g.programSlots = n;
        slot_rows.push_back(std::to_string(n));
        for (const auto &model : models)
            jobs.push_back(geometryJob(
                "programSlots=" + std::to_string(n), g, model, opts));
    }

    std::vector<systems::RunResult> results = bench::runJobs(jobs);
    auto sink = bench::makeSink("ablation_geometry",
                                "PRAM microarchitecture ablations",
                                scale);

    std::size_t idx = 0;
    std::printf("Ablations on DRAM-less bandwidth in MB/s "
                "(scale %.2f)\n\n",
                scale);
    printSection("Ablation: row buffers (RAB/RDB pairs)",
                 "rowBuffers", rb_rows, jobs, results, sink, idx);
    printSection("Ablation: partitions per bank", "partitions",
                 part_rows, jobs, results, sink, idx);
    printSection("Ablation: concurrent program slots (overlay "
                 "windows / program buffers)",
                 "slots", slot_rows, jobs, results, sink, idx);

    std::printf("shapes: more row buffers raise hit/skip rates; "
                "partitions feed the\ninterleaver; program slots set "
                "the write-bandwidth ceiling (write-heavy\nkernels "
                "move most).\n");
    sink.exportFromEnv();
    return 0;
}
