/**
 * @file
 * DNN inference evaluation driver: runs every Table I organization
 * over the named networks (LeNet-style CNN, MLP, transformer FFN
 * stack) across a batch-size axis, plus a volume-matched streaming
 * comparator, on the SweepRunner thread pool.
 *
 * The headline metric is the accelerated-vs-baseline gap (DRAM-less
 * bandwidth / Hetero bandwidth) on inference versus the same gap on
 * the matched streaming workload: weight streaming is regular, but
 * the tiled re-sweeps of the activation buffers and the chunked
 * restaging penalty on the hetero pipeline are where the DRAM-less
 * path should pay off.
 *
 * The networks are lenet, mlp and ffn, each at batch sizes 1 and 4.
 *
 * Environment knobs:
 *   DRAMLESS_DNN_QUICK    batch {1} only (CI smoke)
 *   DRAMLESS_SCALE        workload volume scale (default 0.25)
 *   DRAMLESS_JOBS         worker threads (default: hardware threads)
 *   DRAMLESS_OUT_JSON     write the full result set as JSON ("-"=stdout)
 *   DRAMLESS_OUT_CSV      write the per-run scalar table as CSV
 */

#include <cstdio>
#include <cstdlib>

#include "harness.hh"

using namespace dramless;

int
main()
{
    const double scale = bench::scaleFromEnv();
    auto opts = bench::defaultOptions();
    const bool quick = std::getenv("DRAMLESS_DNN_QUICK") != nullptr;
    const std::vector<std::uint32_t> batches =
        quick ? std::vector<std::uint32_t>{1}
              : std::vector<std::uint32_t>{1, 4};

    // ---------------------- workload models ------------------------
    std::vector<std::shared_ptr<const workload::WorkloadModel>>
        models;
    std::vector<std::string> dnnNames;
    for (const char *net : {"lenet", "mlp", "ffn"}) {
        for (std::uint32_t batch : batches) {
            models.push_back(workload::dnnModelFor(net, batch));
            dnnNames.push_back(models.back()->spec().name);
        }
    }

    // Volume-matched streaming comparator: same bytes and compute
    // intensity as the first network, but a regular streaming sweep
    // — the tiled access schedule is the only difference.
    workload::WorkloadSpec stream;
    stream.name = "stream_matched";
    stream.pattern = workload::Pattern::streaming;
    stream.klass = workload::WorkloadClass::memoryIntensive;
    stream.inputBytes = models.front()->spec().inputBytes;
    stream.outputBytes = models.front()->spec().outputBytes;
    stream.opsPerByte = models.front()->spec().opsPerByte;
    models.push_back(workload::modelFor(stream));

    auto kinds = systems::SystemFactory::evaluationOrder();
    auto jobs = runner::makeMatrixJobs(
        kinds, bench::scaled(models, scale), opts);
    runner::SweepRunner pool(runner::jobsFromEnv());
    std::printf("dnn sweep: %zu runs (%zu systems x %zu workloads),"
                " %u worker%s, scale %.2f\n\n",
                jobs.size(), kinds.size(), models.size(),
                pool.numWorkers(), pool.numWorkers() == 1 ? "" : "s",
                scale);

    std::vector<systems::RunResult> results =
        pool.run(jobs, runner::stderrProgress());

    auto sink = bench::makeSink(
        "fig_dnn_sweep",
        "DNN inference (lenet/mlp/ffn) across all organizations",
        scale);
    for (const auto &r : results)
        sink.add(r);
    runner::ResultMatrix m = sink.matrix();

    // --------------------------- tables ----------------------------
    std::vector<std::string> cols = dnnNames;
    cols.push_back(stream.name);
    bench::printHeader("bandwidth vs Hetero", cols, 16);
    const auto &hetero = m.at("Hetero");
    for (auto kind : kinds) {
        const char *label = systems::SystemFactory::label(kind);
        const auto &row = m.at(label);
        std::printf("%-22s", label);
        for (const auto &name : cols) {
            std::printf("%16.2f", row.at(name).bandwidthMBps /
                                      hetero.at(name).bandwidthMBps);
        }
        std::printf("\n");
    }

    // ------------------------ gap metrics --------------------------
    // The accelerated-vs-baseline gap per network/batch, and the
    // headline ratio of the inference gap to the matched streaming
    // gap.
    const auto &dless = m.at("DRAM-less");
    std::vector<double> dnn_gaps;
    for (const auto &name : dnnNames) {
        double gap = dless.at(name).bandwidthMBps /
                     hetero.at(name).bandwidthMBps;
        dnn_gaps.push_back(gap);
        sink.metric("gap_vs_hetero/" + name, gap);
    }
    double stream_gap = dless.at(stream.name).bandwidthMBps /
                        hetero.at(stream.name).bandwidthMBps;
    sink.metric("gap_vs_hetero/" + stream.name, stream_gap);
    double dnn_gap_gm = stats::geomean(dnn_gaps);
    sink.metric("dnn_gap_gm", dnn_gap_gm);
    sink.metric("dnn_vs_stream_gap_ratio", dnn_gap_gm / stream_gap);
    std::printf("\nDRAM-less vs Hetero gap: dnn gm %.2fx, "
                "matched stream %.2fx (ratio %.2f)\n",
                dnn_gap_gm, stream_gap, dnn_gap_gm / stream_gap);

    sink.exportFromEnv();
    return 0;
}
