/**
 * @file
 * Streaming analytics scenario: the data-intensive use case the
 * paper's introduction motivates. A log-scan/aggregate kernel sweeps
 * a large record store with a small output — exactly the shape that
 * drowns a conventional accelerated system in host-side data
 * movement. We run the same job on DRAM-less and on a conventional
 * Hetero system and compare.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/dramless.hh"

using namespace dramless;

namespace
{

/** A scan + filter + aggregate trace over a record store. */
class ScanAggregateTrace : public accel::TraceSource
{
  public:
    /**
     * @param base start of this agent's record slice
     * @param records number of 128-byte records to scan
     * @param out_base where the per-bucket aggregates are stored
     */
    ScanAggregateTrace(std::uint64_t base, std::uint64_t records,
                       std::uint64_t out_base)
        : base_(base), records_(records), outBase_(out_base)
    {}

    bool
    next(accel::TraceItem &out) override
    {
        // Per record: load four 32 B words, ~20 ops of predicate and
        // aggregation work per word, and every 64th record spills a
        // bucket update.
        if (rec_ >= records_)
            return false;
        switch (phase_) {
          case 0:
          case 1:
          case 2:
          case 3:
            out = accel::TraceItem::loadOf(
                base_ + rec_ * 128 + std::uint64_t(phase_) * 32, 32);
            ++phase_;
            return true;
          case 4:
            out = accel::TraceItem::computeOf(4 * 20);
            ++phase_;
            return true;
          default:
            if (rec_ % 64 == 63) {
                out = accel::TraceItem::storeOf(
                    outBase_ + (rec_ / 64 % 512) * 32, 32);
            } else {
                out = accel::TraceItem::computeOf(8);
            }
            phase_ = 0;
            ++rec_;
            return true;
        }
    }

  private:
    std::uint64_t base_;
    std::uint64_t records_;
    std::uint64_t outBase_;
    std::uint64_t rec_ = 0;
    int phase_ = 0;
};

} // anonymous namespace

int
main()
{
    setQuiet(true);
    constexpr std::uint64_t total_records = 24 * 1024; // 3 MiB store
    constexpr std::uint32_t agents = 7;

    // ------------------------- DRAM-less --------------------------
    core::DramLessAccelerator dl;

    // Stage the record store (persistent, byte-addressable).
    std::vector<std::uint8_t> store(total_records * 128);
    for (std::size_t i = 0; i < store.size(); ++i)
        store[i] = std::uint8_t(i * 131 + 17);
    dl.stageData(0, store.data(), store.size());

    std::uint64_t out_base =
        (store.size() + 511) / 512 * 512;
    std::vector<std::unique_ptr<ScanAggregateTrace>> traces;
    std::vector<accel::TraceSource *> ptrs;
    std::uint64_t per_agent = total_records / agents;
    for (std::uint32_t a = 0; a < agents; ++a) {
        traces.push_back(std::make_unique<ScanAggregateTrace>(
            a * per_agent * 128, per_agent,
            out_base + a * 16384));
        ptrs.push_back(traces.back().get());
    }

    core::KernelImage img = core::KernelImage::pack(
        {core::KernelSegment{"scan", 0x10000, 0,
                             std::vector<std::uint8_t>(8192, 0xC3)}});
    std::vector<std::pair<std::uint64_t, std::uint64_t>> outs;
    for (std::uint32_t a = 0; a < agents; ++a)
        outs.emplace_back(out_base + a * 16384, 16384);

    core::OffloadResult r = dl.offload(img, ptrs, outs);
    double dl_ms = toMs(r.completedAt - r.startedAt);
    double dl_mj = r.energy.total() * 1e3;

    std::printf("scan/aggregate over %llu records (%.1f MiB)\n",
                (unsigned long long)total_records,
                double(store.size()) / double(1 << 20));
    std::printf("  DRAM-less       : %8.3f ms  %8.3f mJ\n", dl_ms,
                dl_mj);

    // --------------------- conventional Hetero --------------------
    // The same volume and access shape expressed as a workload spec
    // running on the Hetero system model: SSD + host stack + PCIe.
    workload::WorkloadSpec spec;
    spec.name = "scan-agg";
    spec.pattern = workload::Pattern::streaming;
    spec.klass = workload::WorkloadClass::readIntensive;
    spec.inputBytes = store.size();
    spec.outputBytes = (total_records / 64) * 32;
    spec.opsPerByte = 88.0 / 128.0;

    const auto model = workload::modelFor(spec);
    systems::SystemOptions opts;
    for (auto kind : {systems::SystemKind::hetero,
                      systems::SystemKind::heterodirect}) {
        auto sys = systems::SystemFactory::create(kind, opts);
        systems::RunResult h = sys->run(*model);
        std::printf("  %-16s: %8.3f ms  %8.3f mJ"
                    "   (%.2fx slower, %.1fx more energy)\n",
                    h.system.c_str(), toMs(h.execTime),
                    h.energy.total() * 1e3,
                    toMs(h.execTime) / dl_ms,
                    h.energy.total() * 1e3 / dl_mj);
    }

    std::printf("\nthe gap is the host storage stack and the copies "
                "DRAM-less removes.\n");
    return 0;
}
