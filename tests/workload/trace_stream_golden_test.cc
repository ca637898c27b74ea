/**
 * @file
 * Golden-file pin of every trace generator's drained stream. Each
 * input (the fifteen Polybench kernels at scale 0.05, the three graph
 * kernels on a small R-MAT graph and the three named DNN networks at
 * batch 1) is split across seven agents at 32 B words and drained
 * both raw and through the 512 B coalescer. Each stream is recorded
 * as its item count, load and store words, instructions and an FNV-1a
 * hash over every item, so any change to a generator's or the
 * coalescer's output order, addresses or sizes shows up here.
 *
 * Regenerate with:
 *   DRAMLESS_UPDATE_GOLDEN=1 build/tests/workload/workload_tests \
 *       --gtest_filter='TraceStreamGoldenTest.*'
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden_file.hh"
#include "workload/coalesce.hh"
#include "workload/dnn.hh"
#include "workload/graph.hh"
#include "workload/workload_model.hh"

#ifndef DRAMLESS_GOLDEN_DIR
#error "DRAMLESS_GOLDEN_DIR must point at tests/workload/golden"
#endif

namespace dramless
{
namespace workload
{
namespace
{

constexpr std::uint32_t kAgents = 7;

/** FNV-1a over the little-endian bytes of each mixed value. */
struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ull;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

/** Drain @p src into one golden line. */
std::string
streamLine(accel::TraceSource &src)
{
    std::uint64_t items = 0, load_words = 0, store_words = 0;
    std::uint64_t instructions = 0;
    Fnv1a fnv;
    accel::TraceItem it;
    while (src.next(it)) {
        ++items;
        switch (it.kind) {
          case accel::TraceItem::Kind::compute:
            instructions += it.instructions;
            break;
          case accel::TraceItem::Kind::load:
            load_words += it.burst;
            break;
          case accel::TraceItem::Kind::store:
            store_words += it.burst;
            break;
        }
        fnv.mix(std::uint64_t(it.kind));
        fnv.mix(it.addr);
        fnv.mix(it.size);
        fnv.mix(it.burst);
        fnv.mix(it.instructions);
    }
    std::ostringstream os;
    os << "items " << items << " load_words " << load_words
       << " store_words " << store_words << " instructions "
       << instructions << " fnv " << std::hex << fnv.h;
    return os.str();
}

std::vector<std::pair<std::string,
                      std::shared_ptr<const WorkloadModel>>>
inputs()
{
    std::vector<std::pair<std::string,
                          std::shared_ptr<const WorkloadModel>>> v;
    for (const WorkloadSpec &spec : Polybench::allScaled(0.05))
        v.emplace_back("polybench/" + spec.name, modelFor(spec));
    for (GraphKernel k : {GraphKernel::bfs, GraphKernel::pagerank,
                          GraphKernel::spmv}) {
        GraphWorkloadConfig cfg;
        cfg.kernel = k;
        cfg.graph.numVertices = 1024;
        cfg.graph.edgeFactor = 8.0;
        cfg.graph.seed = 7;
        cfg.iterations = 2;
        v.emplace_back(std::string("graph/") + graphKernelName(k),
                       std::make_shared<GraphWorkload>(cfg));
    }
    for (const char *net : {"lenet", "mlp", "ffn"})
        v.emplace_back(std::string("dnn/") + net, dnnModelFor(net, 1));
    return v;
}

std::string
currentSnapshot()
{
    std::ostringstream os;
    os << "# Drained trace streams, 7 agents at 32 B words, raw and "
          "coalesced at 512 B. Regenerate with "
          "DRAMLESS_UPDATE_GOLDEN=1.\n";
    for (const auto &[name, model] : inputs()) {
        for (std::uint32_t a = 0; a < kAgents; ++a) {
            AgentTraceParams p;
            p.outputBase = (model->spec().inputBytes + 4095) / 4096 *
                           4096;
            p.agentIndex = a;
            p.numAgents = kAgents;
            p.accessBytes = 32;
            auto raw = model->makeAgentTrace(p);
            auto coalesced =
                wrapCoalescing(model->makeAgentTrace(p), 512);
            os << name << " agent" << a << " raw " << streamLine(*raw)
               << "\n";
            os << name << " agent" << a << " coalesced "
               << streamLine(*coalesced) << "\n";
        }
    }
    return os.str();
}

TEST(TraceStreamGoldenTest, DrainedStreamsMatchGoldenFile)
{
    expectMatchesGolden(
        std::string(DRAMLESS_GOLDEN_DIR) + "/trace_streams.txt",
        currentSnapshot());
}

} // namespace
} // namespace workload
} // namespace dramless
