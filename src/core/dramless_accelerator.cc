#include "core/dramless_accelerator.hh"

#include <algorithm>

#include "systems/energy_accounting.hh"
#include "systems/node.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace core
{

namespace
{

/** PRAM reserved at the top of the space for kernel images. */
constexpr std::uint64_t imageRegionBytes = 16ull << 20;

/** @p c in the shared node wiring's terms. offload(spec) traces stay
 *  per-word: coalescing is off. */
systems::SystemOptions
nodeOptions(const DramLessConfig &c)
{
    systems::SystemOptions opts;
    opts.wearLeveling = c.wearLeveling;
    opts.functional = c.functional;
    opts.coalesceBytes = 32;
    return opts;
}

} // anonymous namespace

DramLessAccelerator::DramLessAccelerator(const DramLessConfig &config)
    : config_(config)
{
    const systems::SystemOptions opts = nodeOptions(config);
    pram_ = std::make_unique<ctrl::PramSubsystem>(
        eq_, systems::pramConfig(opts, config.scheduler), "pram");
    readyAt_ = pram_->initialize();

    accel_ = std::make_unique<accel::Accelerator>(
        eq_, systems::acceleratorConfig(opts), "accel");
    accel_->attachBackend(pram_.get());

    stack_ = std::make_unique<host::SoftwareStack>(
        host::StackConfig::conventional(), "host");
    pcie_ = std::make_unique<host::PcieLink>(
        eq_, host::PcieConfig{}, "pcie");

    fatal_if(pram_->capacity() <= imageRegionBytes,
             "PRAM too small for the image region");
    imageBase_ = (pram_->capacity() - imageRegionBytes) / 512 * 512;
    eq_.runUntil(readyAt_); // boot the subsystem
}

DramLessAccelerator::~DramLessAccelerator()
{
    // Drain background activity (zero-fills, trailing programs) so
    // no component is destroyed with a scheduled event.
    eq_.run();
}

Tick
DramLessAccelerator::now() const
{
    return eq_.curTick();
}

std::uint64_t
DramLessAccelerator::capacity() const
{
    return imageBase_;
}

void
DramLessAccelerator::runUntilDone(const bool &done)
{
    while (!done && eq_.step()) {
    }
    panic_if(!done, "accelerator deadlocked");
}

void
DramLessAccelerator::writeData(std::uint64_t addr, const void *src,
                               std::uint64_t size)
{
    fatal_if(size == 0, "writeData of zero bytes");
    fatal_if(addr % 32 != 0 || size % 32 != 0,
             "writeData must be 32-byte aligned");
    fatal_if(addr + size > capacity(), "writeData beyond capacity");

    // The host arms the DMA, pushes the data over PCIe, then the
    // server programs the PRAM through its memory controllers.
    Tick setup = stack_->dmaSetupCost();
    Tick arrived = pcie_->transfer(size, eq_.curTick() + setup);
    bool done = false;
    EventFunctionWrapper kick(
        [&] {
            auto remaining =
                std::make_shared<std::uint64_t>((size + 511) / 512);
            for (std::uint64_t off = 0; off < size; off += 512) {
                std::uint32_t chunk =
                    std::uint32_t(std::min<std::uint64_t>(512,
                                                          size - off));
                accel_->mcu().write(addr + off, chunk,
                                    [&done, remaining](Tick) {
                                        if (--*remaining == 0)
                                            done = true;
                                    });
            }
        },
        "writeData");
    eq_.schedule(&kick, arrived);
    runUntilDone(done);
    // The timed path moves pattern data; place the real bytes now.
    if (config_.functional)
        pram_->functionalWrite(addr, src, size);
}

void
DramLessAccelerator::readData(std::uint64_t addr, void *dst,
                              std::uint64_t size)
{
    fatal_if(size == 0, "readData of zero bytes");
    fatal_if(addr % 32 != 0 || size % 32 != 0,
             "readData must be 32-byte aligned");
    fatal_if(addr + size > pram_->capacity(),
             "readData beyond capacity");
    bool done = false;
    auto remaining =
        std::make_shared<std::uint64_t>((size + 511) / 512);
    for (std::uint64_t off = 0; off < size; off += 512) {
        std::uint32_t chunk = std::uint32_t(
            std::min<std::uint64_t>(512, size - off));
        accel_->mcu().read(addr + off, chunk,
                           [&done, remaining](Tick) {
                               if (--*remaining == 0)
                                   done = true;
                           });
    }
    runUntilDone(done);
    eq_.runUntil(pcie_->transfer(size, eq_.curTick()));
    if (config_.functional)
        pram_->functionalRead(addr, dst, size);
}

void
DramLessAccelerator::stageData(std::uint64_t addr, const void *src,
                               std::uint64_t size)
{
    fatal_if(!config_.functional,
             "stageData requires a functional configuration");
    pram_->functionalWrite(addr, src, size);
}

void
DramLessAccelerator::fetchData(std::uint64_t addr, void *dst,
                               std::uint64_t size) const
{
    fatal_if(!config_.functional,
             "fetchData requires a functional configuration");
    pram_->functionalRead(addr, dst, size);
}

OffloadResult
DramLessAccelerator::offload(
    const KernelImage &image,
    const std::vector<accel::TraceSource *> &traces,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>
        &output_regions)
{
    fatal_if(traces.empty(), "offload without traces");
    fatal_if(image.size() == 0, "offload with an empty image");

    OffloadResult result;
    result.startedAt = eq_.curTick();

    // Snapshot per-agent activity so sequential offloads bill only
    // their own window (PSC residencies are cumulative).
    struct AgentSnap
    {
        Tick busy;
        Tick active;
    };
    std::vector<AgentSnap> snap;
    for (std::uint32_t i = 0; i < traces.size(); ++i) {
        const accel::PeStats &s = accel_->agent(i).peStats();
        snap.push_back(AgentSnap{
            (s.computeCycles + s.memAccessCycles) *
                accel_->agent(i).config().clockPeriod,
            accel_->psc().residency(i + 1,
                                    accel::PowerState::active,
                                    result.startedAt)});
    }
    Tick host_busy_before = stack_->stackStats().cpuBusyTicks;
    std::uint64_t pcie_bytes_before =
        pcie_->pcieStats().bytes;
    // PRAM op-energy snapshot (zero window: no static terms).
    const energy::EnergyParams p = energy::EnergyParams::paperDefault();
    energy::EnergyBreakdown pram_before =
        systems::pramEnergy(*pram_, 0, p);

    // packData produced the image; pushData arms the DMA and ships
    // it over PCIe.
    Tick setup = stack_->dmaSetupCost();
    Tick arrived =
        pcie_->transfer(image.size(), eq_.curTick() + setup);

    accel::KernelLaunch launch;
    launch.agentTraces = traces;
    launch.imageBytes = image.size();
    launch.imageBase = imageBase_;
    launch.outputRegions = output_regions;

    bool done = false;
    Tick end = 0;
    EventFunctionWrapper kick(
        [&] {
            accel_->launch(launch, [&](Tick t) {
                done = true;
                end = t;
            });
        },
        "offload");
    eq_.schedule(&kick, arrived);
    runUntilDone(done);

    // The timed download carried pattern bytes; make the image
    // content visible for the server's unpackData.
    if (config_.functional)
        pram_->functionalWrite(imageBase_, image.bytes().data(),
                               image.size());
    lastImageBytes_ = image.size();

    result.completedAt = end;
    result.seconds = toSec(end - result.startedAt);
    result.instructions = accel_->metrics().totalInstructions;
    result.ipc = accel_->ipcSeries();
    energy::EnergyBreakdown e;
    Tick window = end - result.startedAt;
    for (std::uint32_t i = 0; i < traces.size(); ++i) {
        const accel::PeStats &s = accel_->agent(i).peStats();
        Tick busy = (s.computeCycles + s.memAccessCycles) *
                        accel_->agent(i).config().clockPeriod -
                    snap[i].busy;
        Tick active =
            accel_->psc().residency(i + 1,
                                    accel::PowerState::active,
                                    end) -
            snap[i].active;
        busy = std::min(busy, active);
        Tick stall = active - busy;
        Tick asleep = window > active ? window - active : 0;
        e.accelCores += energy::wattsOver(p.peActiveWatts, busy) +
                        energy::wattsOver(p.peStallWatts, stall) +
                        energy::wattsOver(p.peSleepWatts, asleep);
    }
    e.accelCores += energy::wattsOver(p.uncoreWatts, window);
    energy::EnergyBreakdown pram_after =
        systems::pramEnergy(*pram_, window, p);
    e.storageMedia +=
        pram_after.storageMedia - pram_before.storageMedia;
    e.controller += pram_after.controller - pram_before.controller;
    e.hostStack += energy::wattsOver(
        p.hostActiveWatts,
        stack_->stackStats().cpuBusyTicks - host_busy_before);
    e.pcie += energy::perByte(
        p.pciePicojoulePerByte,
        pcie_->pcieStats().bytes - pcie_bytes_before);
    result.energy = e;
    return result;
}

OffloadResult
DramLessAccelerator::offload(const workload::WorkloadSpec &spec,
                             std::uint64_t input_base)
{
    const std::uint32_t agents = accel_->numAgents();
    std::vector<std::unique_ptr<workload::AgentTraceSource>> owned;
    const accel::KernelLaunch launch = systems::agentLaunch(
        *workload::modelFor(spec), nodeOptions(config_),
        systems::addressMap(spec, input_base), owned);
    // A synthetic image: one shared segment plus one app per agent.
    std::vector<KernelSegment> segs;
    segs.push_back(KernelSegment{
        "shared", 0, 0, std::vector<std::uint8_t>(4096, 0x90)});
    for (std::uint32_t i = 0; i < agents; ++i) {
        segs.push_back(KernelSegment{
            csprintf("app%u", i), (i + 1) * 0x10000, 0,
            std::vector<std::uint8_t>(1024, std::uint8_t(i))});
    }
    return offload(KernelImage::pack(std::move(segs)),
                   launch.agentTraces, launch.outputRegions);
}

void
DramLessAccelerator::dumpStats(std::ostream &os) const
{
    os << "---------- dramless @" << toUs(eq_.curTick())
       << " us ----------\n";
    for (std::uint32_t ch = 0; ch < pram_->numChannels(); ++ch) {
        const ctrl::ChannelController &c = pram_->channel(ch);
        const ctrl::ControllerStats &s = c.ctrlStats();
        os << c.name() << ".readRequests " << s.readRequests << "\n"
           << c.name() << ".writeRequests " << s.writeRequests << "\n"
           << c.name() << ".preActivesSkipped " << s.preActivesSkipped
           << "\n"
           << c.name() << ".activatesSkipped " << s.activatesSkipped
           << "\n"
           << c.name() << ".zeroFillPrograms " << s.zeroFillPrograms
           << "\n"
           << c.name() << ".readLatencyNs.mean "
           << s.readLatencyNs.mean() << "\n"
           << c.name() << ".writeLatencyNs.mean "
           << s.writeLatencyNs.mean() << "\n";
        std::uint64_t reads = 0, programs = 0, overwrites = 0;
        for (std::uint32_t m = 0; m < c.numModules(); ++m) {
            const pram::ModuleStats &ms = c.module(m).moduleStats();
            reads += ms.numReadBursts;
            programs += ms.numPrograms;
            overwrites += ms.numOverwrites;
        }
        os << c.name() << ".modules.readBursts " << reads << "\n"
           << c.name() << ".modules.programs " << programs << "\n"
           << c.name() << ".modules.overwrites " << overwrites
           << "\n";
    }
    const accel::McuStats &m = accel_->mcu().mcuStats();
    os << "mcu.reads " << m.reads << "\n"
       << "mcu.writes " << m.writes << "\n"
       << "mcu.bytesRead " << m.bytesRead << "\n"
       << "mcu.bytesWritten " << m.bytesWritten << "\n";
    for (std::uint32_t i = 0; i < accel_->numAgents(); ++i) {
        const accel::PeStats &p = accel_->agent(i).peStats();
        const std::string &n = accel_->agent(i).name();
        os << n << ".instructions " << p.instructions << "\n"
           << n << ".l2MissReads " << p.l2MissReads << "\n"
           << n << ".loadStallUs " << toUs(p.loadStallTicks) << "\n"
           << n << ".storeStallUs " << toUs(p.storeStallTicks)
           << "\n";
    }
}

KernelImage
DramLessAccelerator::readBackImage() const
{
    fatal_if(lastImageBytes_ == 0, "no image has been offloaded");
    std::vector<std::uint8_t> blob(lastImageBytes_);
    fetchData(imageBase_, blob.data(), blob.size());
    return KernelImage::unpack(blob);
}

} // namespace core
} // namespace dramless
