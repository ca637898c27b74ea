#include "workload/trace_gen.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramless
{
namespace workload
{

PolybenchTraceSource::PolybenchTraceSource(
    const TraceGenConfig &config)
    : cfg_(config), rng_(config.seed + config.agentIndex * 7919)
{
    fatal_if(cfg_.numAgents == 0 ||
                 cfg_.agentIndex >= cfg_.numAgents,
             "bad agent slice");
    fatal_if(cfg_.accessBytes == 0 || cfg_.accessBytes % 32 != 0,
             "access size must be a positive multiple of 32");

    const std::uint32_t unit = cfg_.accessBytes;
    // Partition whole access units across agents. Sub-unit residue is
    // unaddressable at PE granularity and stays dropped.
    auto slice = [&](std::uint64_t total_bytes, std::uint64_t &base,
                     std::uint64_t &size) {
        std::uint64_t units = total_bytes / unit;
        auto [first, last] =
            agentSlice(0, units, cfg_.agentIndex, cfg_.numAgents);
        std::uint64_t count = last - first;
        if (count == 0) {
            // Degenerate volume: alias the last unit so every agent
            // still has work (and never reads past the region).
            count = 1;
            first = units > 0 ? units - 1 : 0;
        }
        base = first * unit;
        size = count * unit;
    };
    std::uint64_t in_off = 0, out_off = 0;
    slice(cfg_.spec.inputBytes, in_off, inSize_);
    slice(cfg_.spec.outputBytes, out_off, outSize_);
    inBase_ = cfg_.inputBase + in_off;
    std::uint64_t out_base = cfg_.outputBase != 0
                                 ? cfg_.outputBase
                                 : cfg_.inputBase +
                                       cfg_.spec.inputBytes;
    outBase_ = out_base + out_off;

    elements_ = inSize_ / unit;
    auto ops = [&](std::uint32_t loads) {
        return std::max<std::uint64_t>(
            1, std::uint64_t(cfg_.spec.opsPerByte * double(unit) *
                             double(loads)));
    };
    ops1_ = ops(1);
    ops3_ = ops(3);
    storeStep_ = double(unit) * double(outSize_) / double(inSize_);
}

void
PolybenchTraceSource::rewind()
{
    element_ = 0;
    storeOffset_ = 0;
    storeDebt_ = 0.0;
    dropStaged();
    rng_ = Random(cfg_.seed + cfg_.agentIndex * 7919);
}

std::uint64_t
PolybenchTraceSource::loadAddr(std::uint64_t k)
{
    const std::uint32_t unit = cfg_.accessBytes;
    switch (cfg_.spec.pattern) {
      case Pattern::streaming:
      case Pattern::stencil:
        return inBase_ + k * unit;
      case Pattern::strided: {
        // Column-major walk: consecutive elements sit one row apart,
        // so every access opens a new L2 block until the column set
        // wraps — the request mix interleaving thrives on.
        std::uint64_t row_bytes =
            std::min<std::uint64_t>(cfg_.rowBytes, inSize_);
        std::uint64_t rows = std::max<std::uint64_t>(
            1, inSize_ / row_bytes);
        std::uint64_t cols = row_bytes / unit;
        std::uint64_t row = k % rows;
        std::uint64_t col = (k / rows) % cols;
        return inBase_ + row * row_bytes + col * unit;
      }
      case Pattern::randomAccess:
        return inBase_ + rng_.below(elements_) * unit;
      case Pattern::triangular: {
        // Factorization-style: half the accesses re-read a recent
        // 64 KiB window (high locality), half stream forward.
        if (k > 0 && rng_.chance(0.5)) {
            std::uint64_t window = std::min<std::uint64_t>(
                64 * 1024, k * unit);
            std::uint64_t back = rng_.below(window / unit + 1);
            std::uint64_t pos = k * unit - back * unit;
            return inBase_ + pos;
        }
        return inBase_ + k * unit;
      }
    }
    panic("unreachable pattern");
}

void
PolybenchTraceSource::refill()
{
    while (staged() < kRefillBatch && element_ < elements_)
        stageElement(element_++);
    if (element_ < elements_)
        return;
    // Input exhausted: flush the remaining output volume (once; the
    // flush leaves nothing owed).
    const std::uint32_t unit = cfg_.accessBytes;
    for (; storeOffset_ < outSize_; storeOffset_ += unit)
        stage(accel::TraceItem::storeOf(outBase_ + storeOffset_, unit));
}

void
PolybenchTraceSource::stageElement(std::uint64_t k)
{
    const std::uint32_t unit = cfg_.accessBytes;
    stage(accel::TraceItem::loadOf(loadAddr(k), unit));
    std::uint64_t ops = ops1_;
    if (cfg_.spec.pattern == Pattern::stencil && (k & 1) == 0) {
        // Neighbourhood rows: usually L2 hits (the row above was
        // streamed recently; the row below warms future elements).
        std::uint64_t addr = inBase_ + k * unit;
        std::uint64_t up = addr >= inBase_ + cfg_.rowBytes
                               ? addr - cfg_.rowBytes
                               : inBase_;
        std::uint64_t down =
            std::min(addr + cfg_.rowBytes,
                     inBase_ + inSize_ - unit);
        stage(accel::TraceItem::loadOf(up, unit));
        stage(accel::TraceItem::loadOf(down, unit));
        ops = ops3_;
    }
    stage(accel::TraceItem::computeOf(ops));

    // Pace stores so store bytes / load bytes == out / in. The
    // elements owe exactly outSize_ bytes, so the paced stores stay
    // inside the slice.
    storeDebt_ += storeStep_;
    while (storeDebt_ >= double(unit)) {
        stage(accel::TraceItem::storeOf(outBase_ + storeOffset_, unit));
        storeOffset_ += unit;
        storeDebt_ -= double(unit);
    }
}

} // namespace workload
} // namespace dramless
