#include "systems/factory.hh"

#include <atomic>

#include "sim/logging.hh"

namespace dramless
{
namespace systems
{

std::vector<SystemKind>
SystemFactory::evaluationOrder()
{
    return {
        SystemKind::hetero,        SystemKind::heterodirect,
        SystemKind::heteroPram,    SystemKind::heterodirectPram,
        SystemKind::norIntf,       SystemKind::integratedSlc,
        SystemKind::integratedMlc, SystemKind::integratedTlc,
        SystemKind::pageBuffer,    SystemKind::dramLess,
    };
}

const char *
SystemFactory::label(SystemKind kind)
{
    return info(kind).label;
}

SystemInfo
SystemFactory::info(SystemKind kind)
{
    switch (kind) {
      case SystemKind::hetero:
        return {kind, "Hetero", true, true, "50", "800", "3500"};
      case SystemKind::heterodirect:
        return {kind, "Heterodirect", true, true, "50", "800",
                "3500"};
      case SystemKind::heteroPram:
        return {kind, "Hetero-PRAM", true, true, "0.1", "10/18",
                "N/A"};
      case SystemKind::heterodirectPram:
        return {kind, "Heterodirect-PRAM", true, true, "0.1",
                "10/18", "N/A"};
      case SystemKind::norIntf:
        return {kind, "NOR-intf", false, false, "290", "120", "N/A"};
      case SystemKind::integratedSlc:
        return {kind, "Integrated-SLC", false, true, "25", "300",
                "2000"};
      case SystemKind::integratedMlc:
        return {kind, "Integrated-MLC", false, true, "50", "800",
                "3500"};
      case SystemKind::integratedTlc:
        return {kind, "Integrated-TLC", false, true, "80", "1250",
                "2274"};
      case SystemKind::pageBuffer:
        return {kind, "PAGE-buffer", false, true, "0.1", "10/18",
                "N/A"};
      case SystemKind::dramLess:
        return {kind, "DRAM-less", false, false, "0.1", "10/18",
                "N/A"};
      case SystemKind::dramLessFirmware:
        return {kind, "DRAM-less (firmware)", false, false, "0.1",
                "10/18", "N/A"};
      case SystemKind::ideal:
        return {kind, "Ideal", false, true, "-", "-", "-"};
    }
    fatal("unknown system kind");
}

std::unique_ptr<AcceleratedSystem>
SystemFactory::create(SystemKind kind, const SystemOptions &opts)
{
    // `shards` parallelizes multi-node co-sim fleets (one PDES
    // cluster per node behind the PCIe hop; serve::CoSimFleet). A
    // single-node system is one cluster — its MCU<->backend boundary
    // is a synchronous call with zero lookahead — so the kernel
    // stays serial here by design. Say so once instead of silently
    // swallowing the knob.
    static std::atomic<bool> warned_shards{false};
    if (opts.shards != 1 && !warned_shards.exchange(true)) {
        warn("SystemOptions::shards=%u is a no-op for single-node "
             "systems (one event cluster); it shards multi-node "
             "co-sim serving runs only",
             opts.shards);
    }
    switch (kind) {
      case SystemKind::hetero:
        return std::make_unique<HeteroSystem>(HeteroKind::hetero,
                                              opts);
      case SystemKind::heterodirect:
        return std::make_unique<HeteroSystem>(
            HeteroKind::heterodirect, opts);
      case SystemKind::heteroPram:
        return std::make_unique<HeteroSystem>(HeteroKind::heteroPram,
                                              opts);
      case SystemKind::heterodirectPram:
        return std::make_unique<HeteroSystem>(
            HeteroKind::heterodirectPram, opts);
      case SystemKind::norIntf:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::norIntf, opts);
      case SystemKind::integratedSlc:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::integratedSlc, opts);
      case SystemKind::integratedMlc:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::integratedMlc, opts);
      case SystemKind::integratedTlc:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::integratedTlc, opts);
      case SystemKind::pageBuffer:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::pageBuffer, opts);
      case SystemKind::dramLess:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::dramLess, opts);
      case SystemKind::dramLessFirmware:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::dramLessFirmware, opts);
      case SystemKind::ideal:
        return std::make_unique<IntegratedSystem>(
            IntegratedKind::ideal, opts);
    }
    fatal("unknown system kind");
}

std::unique_ptr<AcceleratedSystem>
SystemFactory::createDramLessVariant(IntegratedKind kind,
                                     const SystemOptions &opts)
{
    return std::make_unique<IntegratedSystem>(kind, opts);
}

} // namespace systems
} // namespace dramless
