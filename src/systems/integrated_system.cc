#include "systems/integrated_system.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "flash/nor_pram.hh"
#include "flash/ssd.hh"
#include "host/pcie.hh"
#include "host/software_stack.hh"
#include "systems/backends.hh"
#include "systems/energy_accounting.hh"
#include "systems/node.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace systems
{

const char *
integratedKindName(IntegratedKind kind)
{
    switch (kind) {
      case IntegratedKind::dramLess:
        return "DRAM-less";
      case IntegratedKind::dramLessBareMetal:
        return "DRAM-less (Bare-metal)";
      case IntegratedKind::dramLessInterleaving:
        return "DRAM-less (Interleaving)";
      case IntegratedKind::dramLessSelectiveErase:
        return "DRAM-less (selective-erasing)";
      case IntegratedKind::dramLessFirmware:
        return "DRAM-less (firmware)";
      case IntegratedKind::norIntf:
        return "NOR-intf";
      case IntegratedKind::integratedSlc:
        return "Integrated-SLC";
      case IntegratedKind::integratedMlc:
        return "Integrated-MLC";
      case IntegratedKind::integratedTlc:
        return "Integrated-TLC";
      case IntegratedKind::pageBuffer:
        return "PAGE-buffer";
      case IntegratedKind::ideal:
        return "Ideal";
    }
    return "?";
}

namespace
{

bool
isPramKind(IntegratedKind kind)
{
    switch (kind) {
      case IntegratedKind::dramLess:
      case IntegratedKind::dramLessBareMetal:
      case IntegratedKind::dramLessInterleaving:
      case IntegratedKind::dramLessSelectiveErase:
      case IntegratedKind::dramLessFirmware:
        return true;
      default:
        return false;
    }
}

ctrl::SchedulerConfig
schedulerFor(IntegratedKind kind)
{
    switch (kind) {
      case IntegratedKind::dramLessBareMetal:
        return ctrl::SchedulerConfig::bareMetal();
      case IntegratedKind::dramLessInterleaving:
        return ctrl::SchedulerConfig::interleavingOnly();
      case IntegratedKind::dramLessSelectiveErase:
        return ctrl::SchedulerConfig::selectiveErasingOnly();
      default:
        return ctrl::SchedulerConfig::finalConfig();
    }
}

} // anonymous namespace

IntegratedSystem::IntegratedSystem(IntegratedKind kind,
                                   const SystemOptions &opts)
    : AcceleratedSystem(integratedKindName(kind), opts), kind_(kind)
{}

RunResult
IntegratedSystem::doRun(const workload::WorkloadModel &model)
{
    RunResult res;
    const workload::WorkloadSpec &spec = model.spec();
    const std::uint32_t agents = opts_.numPes - 1;

    const AddressMap map = addressMap(spec);

    // --------------------- storage and backend ---------------------
    std::unique_ptr<ctrl::PramSubsystem> pram;
    std::unique_ptr<flash::Ssd> ssd;
    std::unique_ptr<flash::NorPram> nor;
    std::unique_ptr<DramBackend> dram;
    std::unique_ptr<FirmwareFrontedBackend> fw_backend;
    ctrl::MemoryBackend *backend = nullptr;
    Tick storage_ready = 0;

    if (isPramKind(kind_)) {
        pram = std::make_unique<ctrl::PramSubsystem>(
            eq_, pramConfig(opts_, schedulerFor(kind_)), "pram");
        storage_ready = pram->initialize();
        backend = pram.get();
        if (kind_ == IntegratedKind::dramLessFirmware) {
            flash::FirmwareConfig fwc =
                flash::FirmwareConfig::traditionalSsd();
            if (opts_.reliability.enabled) {
                fwc.timeoutProb = opts_.reliability.firmwareTimeoutProb;
                fwc.timeoutPenalty = opts_.reliability.firmwareTimeout;
                fwc.timeoutRetries = opts_.reliability.firmwareRetries;
                fwc.faultSeed = opts_.reliability.seed;
            }
            fw_backend = std::make_unique<FirmwareFrontedBackend>(
                eq_, *pram, fwc, "fwctl");
            backend = fw_backend.get();
        }
    } else if (kind_ == IntegratedKind::norIntf) {
        nor = std::make_unique<flash::NorPram>(
            eq_, flash::NorPramConfig{}, "nor");
        backend = nor.get();
    } else if (kind_ == IntegratedKind::ideal) {
        DramBackend::Config dcfg;
        dcfg.capacityBytes = map.image + kernelImageBytes + (1 << 20);
        dram = std::make_unique<DramBackend>(eq_, dcfg, "dram");
        backend = dram.get();
    } else {
        flash::SsdConfig scfg;
        switch (kind_) {
          case IntegratedKind::integratedSlc:
            scfg = flash::SsdConfig::slc();
            break;
          case IntegratedKind::integratedMlc:
            scfg = flash::SsdConfig::mlc();
            break;
          case IntegratedKind::integratedTlc:
            scfg = flash::SsdConfig::tlc();
            break;
          case IntegratedKind::pageBuffer:
            scfg = flash::SsdConfig::slc();
            scfg.array.media = flash::FlashTiming::pagePram();
            break;
          default:
            panic("unhandled integrated kind");
        }
        if (kind_ == IntegratedKind::pageBuffer) {
            // One physical PRAM subsystem: a 16 KiB page spans every
            // module, so page operations serialize up to the four
            // program-buffer slots; transfers ride the two 1.6 GB/s
            // LPDDR2-NVM channels.
            scfg.array.channels = 1;
            scfg.array.diesPerChannel = 4;
            scfg.array.blocksPerDie = 1024;
            scfg.array.channelBytesPerSec = 3.2e9;
        } else {
            // Embedded flash: a handful of channels, unlike the
            // 32-die discrete NVMe SSDs of the host systems.
            scfg.array.channels = 4;
            scfg.array.diesPerChannel = 2;
            scfg.array.blocksPerDie = 512;
        }
        // Keep the paper's data-to-internal-DRAM ratio (the grown
        // volumes exceed the 1 GiB buffer roughly 8x).
        scfg.buffer.capacityBytes = std::max<std::uint64_t>(
            std::uint64_t(4) * scfg.buffer.pageBytes,
            spec.totalBytes() / 8 / scfg.buffer.pageBytes *
                scfg.buffer.pageBytes);
        if (opts_.reliability.enabled) {
            scfg.firmware.timeoutProb =
                opts_.reliability.firmwareTimeoutProb;
            scfg.firmware.timeoutPenalty =
                opts_.reliability.firmwareTimeout;
            scfg.firmware.timeoutRetries =
                opts_.reliability.firmwareRetries;
            scfg.firmware.faultSeed = opts_.reliability.seed;
        }
        ssd = std::make_unique<flash::Ssd>(eq_, scfg, "essd");
        // Inputs are staged in the persistent store before the run,
        // as in the paper's methodology.
        ssd->populate(map.input, spec.inputBytes);
        backend = ssd.get();
    }

    // -------------------------- accelerator ------------------------
    accel::AcceleratorConfig acfg = acceleratorConfig(opts_);
    if (kind_ == IntegratedKind::norIntf) {
        // No internal DRAM and a byte-granular interface: the PEs
        // fetch fine-grained L2 lines straight from the NOR PRAM
        // instead of the two-channel 1 KiB request shape.
        acfg.pe.l2.blockBytes = 64;
    }
    accel::Accelerator accel(eq_, acfg, "accel");
    accel.attachBackend(backend);

    std::vector<std::unique_ptr<workload::AgentTraceSource>> traces;
    const accel::KernelLaunch launch =
        agentLaunch(model, opts_, map, traces);

    // ------------------- host-side kernel offload ------------------
    // The host only packs the kernel and pushes it over PCIe
    // (Figure 10: packData / pushData).
    host::SoftwareStack stack(host::StackConfig::conventional(),
                              "host");
    host::PcieLink pcie(eq_, host::PcieConfig{}, "pcie");
    Tick prep = stack.dmaSetupCost();
    Tick image_at_accel =
        pcie.transfer(kernelImageBytes,
                      std::max(prep, storage_ready));

    bool done = false;
    Tick end_tick = 0;
    EventFunctionWrapper kick(
        [&] {
            accel.launch(launch, [&](Tick t) {
                done = true;
                end_tick = t;
            });
        },
        "kick");
    eq_.schedule(&kick, image_at_accel);

    while (!done && eq_.step()) {
    }
    panic_if(!done, "%s: run deadlocked on %s", name_.c_str(),
             spec.name.c_str());
    // Drain trailing activity (posted writes, background zero-fills)
    // so no component is destroyed with a scheduled event.
    eq_.run();

    // ---------------------------- metrics --------------------------
    res.execTime = end_tick;
    res.hostStackTime = stack.stackStats().cpuBusyTicks;
    res.transferTime = pcie.pcieStats().busyTicks;
    Tick stall_sum = 0;
    for (std::uint32_t i = 0; i < agents; ++i) {
        const accel::PeStats &s = accel.agent(i).peStats();
        stall_sum += s.loadStallTicks + s.storeStallTicks;
    }
    res.storageStallTime = stall_sum / agents;
    Tick accounted = res.hostStackTime + res.transferTime +
                     res.storageStallTime;
    res.computeTime =
        res.execTime > accounted ? res.execTime - accounted : 0;
    res.totalInstructions = accel.metrics().totalInstructions;
    res.ipc = accel.ipcSeries();

    // ------------------------- reliability --------------------------
    if (pram) {
        const auto &sub = pram->subsystemStats();
        res.reliability.badLineRemaps = sub.badLineRemaps;
        res.reliability.spareLinesUsed = sub.spareLinesUsed;
        res.reliability.gapMoveWrites = sub.gapMoveWrites;
        res.reliability.writesBeforeFirstRemap =
            sub.writesBeforeFirstRemap;
        for (std::uint32_t c = 0; c < pram->numChannels(); ++c) {
            const auto &cs = pram->channel(c).ctrlStats();
            res.reliability.verifyRetries += cs.verifyRetries;
            res.reliability.failedWrites += cs.verifyFailedWrites;
        }
        res.reliability.maxLineWear = pram->maxLineWear();
    }
    if (fw_backend) {
        res.reliability.firmwareTimeouts =
            fw_backend->firmware().numTimeouts();
        res.reliability.firmwareGiveUps =
            fw_backend->firmware().numTimeoutGiveUps();
    }
    if (ssd) {
        res.reliability.firmwareTimeouts +=
            ssd->firmware().numTimeouts();
        res.reliability.firmwareGiveUps +=
            ssd->firmware().numTimeoutGiveUps();
    }

    // ---------------------------- energy ---------------------------
    const energy::EnergyParams p = energy::EnergyParams::paperDefault();
    energy::EnergyBreakdown e;
    e += accelCoreEnergy(accel, 0, end_tick, agents, p);
    e += hostEnergy(stack, p);
    e += pcieEnergy(pcie, p);
    if (pram)
        e += pramEnergy(*pram, end_tick, p);
    if (fw_backend) {
        e.controller += energy::wattsOver(
            p.ssdControllerWatts, fw_backend->firmware().busyTicks());
    }
    if (ssd)
        e += ssdEnergy(*ssd, end_tick, p);
    if (nor)
        e += norEnergy(*nor, p);
    if (dram) {
        e += dramEnergy(dram->bytesMoved(), dram->capacity(),
                        end_tick, p);
        // The ideal reference of Figure 1 is the conventional
        // platform with boundless accelerator DRAM: its host still
        // exists and idles for the duration of the run.
        e.hostStack += energy::wattsOver(p.hostIdleWatts, end_tick);
    }
    res.energy = e;
    res.corePower = corePowerSeries(accel, agents, p);
    res.cumulativeEnergy = cumulativeEnergySeries(
        res.corePower, e.total(), 0, end_tick);
    return res;
}

} // namespace systems
} // namespace dramless
