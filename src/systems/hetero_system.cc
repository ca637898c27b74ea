#include "systems/hetero_system.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "flash/ssd.hh"
#include "host/pcie.hh"
#include "host/software_stack.hh"
#include "sim/event_pool.hh"
#include "systems/backends.hh"
#include "systems/energy_accounting.hh"
#include "systems/node.hh"
#include "workload/coalesce.hh"
#include "workload/workload_model.hh"

namespace dramless
{
namespace systems
{

const char *
heteroKindName(HeteroKind kind)
{
    switch (kind) {
      case HeteroKind::hetero:
        return "Hetero";
      case HeteroKind::heterodirect:
        return "Heterodirect";
      case HeteroKind::heteroPram:
        return "Hetero-PRAM";
      case HeteroKind::heterodirectPram:
        return "Heterodirect-PRAM";
    }
    return "?";
}

namespace
{

/**
 * Chunks a heterogeneous run is split into: captures the paper's
 * data-volume-to-device-buffer ratio (volumes were grown to roughly
 * 8x the 1 GiB device buffers).
 */
constexpr std::uint32_t heteroChunks = 8;

bool
isDirect(HeteroKind kind)
{
    return kind == HeteroKind::heterodirect ||
           kind == HeteroKind::heterodirectPram;
}

bool
isPramSsd(HeteroKind kind)
{
    return kind == HeteroKind::heteroPram ||
           kind == HeteroKind::heterodirectPram;
}

/** Pooled one-shot events: slots recycle as chunks drain. */
class Sequencer
{
  public:
    explicit Sequencer(EventQueue &eq) : eq_(eq), pool_(eq, "seq") {}

    void
    at(Tick when, std::function<void()> fn)
    {
        pool_.schedule(std::max(when, eq_.curTick()), std::move(fn));
    }

  private:
    EventQueue &eq_;
    EventPool pool_;
};

} // anonymous namespace

HeteroSystem::HeteroSystem(HeteroKind kind, const SystemOptions &opts)
    : AcceleratedSystem(heteroKindName(kind), opts), kind_(kind)
{}

RunResult
HeteroSystem::doRun(const workload::WorkloadModel &model)
{
    RunResult res;
    const workload::WorkloadSpec &spec = model.spec();
    const std::uint32_t agents = opts_.numPes - 1;
    // The chunk model knows how the workload splits: regular kernels
    // shrink by 1/heteroChunks, data-dependent ones (graphs) keep the
    // shared state every chunk must re-stage.
    std::shared_ptr<const workload::WorkloadModel> chunk_model =
        model.chunked(heteroChunks);
    const workload::WorkloadSpec &chunk_spec = chunk_model->spec();

    // --------------------------- components ------------------------
    flash::SsdConfig scfg = isPramSsd(kind_)
                                ? flash::SsdConfig::optane()
                                : flash::SsdConfig::slc();
    // Preserve the paper's data:buffer ratio: the buffer scales with
    // the (scaled) workload instead of swallowing it whole.
    scfg.buffer.capacityBytes = std::max<std::uint64_t>(
        std::uint64_t(4) * scfg.buffer.pageBytes,
        spec.totalBytes() / heteroChunks / scfg.buffer.pageBytes *
            scfg.buffer.pageBytes);
    flash::Ssd ssd(eq_, scfg, "ssd");
    ssd.populate(0, spec.inputBytes);

    host::StackConfig stack_cfg =
        isDirect(kind_) ? host::StackConfig::peerToPeer()
                        : host::StackConfig::conventional();
    host::SoftwareStack stack(stack_cfg, "host");
    host::PcieLink pcie(eq_, host::PcieConfig{}, "pcie");

    DramBackend::Config dcfg; // 1 GiB internal accelerator DRAM
    DramBackend dram(eq_, dcfg, "adram");

    accel::Accelerator accel(eq_, acceleratorConfig(opts_), "accel");
    accel.attachBackend(&dram);

    Sequencer seq(eq_);

    // ------------------------- chunk pipeline ----------------------
    const std::uint64_t out_base = (dcfg.capacityBytes * 3) / 4;
    const std::uint64_t image_base = dcfg.capacityBytes - (4 << 20);
    bool done = false;
    Tick end_tick = 0;
    std::uint32_t chunk = 0;
    Tick ssd_wait = 0; // device time on the chunk load/store path
    std::vector<std::unique_ptr<workload::AgentTraceSource>>
        traces(agents);
    stats::TimeSeries ipc_all("totalIpc");
    stats::TimeSeries act_all("agentActivity");

    std::function<void()> start_chunk = [&]() {
        // 1. Read the chunk's input from the SSD.
        ctrl::MemRequest rd;
        rd.kind = ctrl::ReqKind::read;
        rd.addr = std::uint64_t(chunk) * chunk_spec.inputBytes;
        rd.size = std::uint32_t(chunk_spec.inputBytes);
        Tick load_started = eq_.curTick();
        ssd.setCallback([&, load_started](const ctrl::MemResponse &r) {
            ssd_wait += r.completedAt - load_started;
            // 2. Host software shepherds the data (copies,
            //    deserialization) and arms the accelerator DMA.
            Tick t = r.completedAt;
            t += stack.readPathCost(chunk_spec.inputBytes);
            t += stack.dmaSetupCost();
            // 3. PCIe transfer into the accelerator DRAM.
            Tick arrived =
                pcie.transfer(chunk_spec.inputBytes, t);
            seq.at(arrived, [&]() {
                // 4. Execute this chunk's kernels.
                accel.invalidateAgentCaches();
                accel::KernelLaunch launch;
                launch.imageBytes = kernelImageBytes;
                launch.imageBase = image_base;
                launch.imageResident = chunk > 0;
                // Traditional offload re-coordinates the kernels for
                // every chunk with host assistance (Section IV), so
                // the PSC boot sequence is paid each time.
                for (std::uint32_t i = 0; i < agents; ++i) {
                    workload::AgentTraceParams tp;
                    tp.inputBase = 0;
                    tp.outputBase = out_base;
                    tp.agentIndex = i;
                    tp.numAgents = agents;
                    tp.seed = opts_.seed + chunk;
                    traces[i] = workload::wrapCoalescing(
                        chunk_model->makeAgentTrace(tp),
                        opts_.coalesceBytes);
                    launch.agentTraces.push_back(traces[i].get());
                }
                if (!ipc_all.empty() || chunk > 0) {
                    ipc_all.record(eq_.curTick(), 0.0);
                    act_all.record(eq_.curTick(), 0.0);
                }
                accel.launch(launch, [&](Tick t_done) {
                    for (const auto &p :
                         accel.ipcSeries().samples())
                        ipc_all.record(p.when, p.value);
                    for (const auto &p :
                         accel.activitySeries().samples())
                        act_all.record(p.when, p.value);
                    ipc_all.record(t_done, 0.0);
                    act_all.record(t_done, 0.0);
                    // 5. Write the chunk's outputs back: PCIe out,
                    //    host stack, SSD write.
                    Tick t2 = pcie.transfer(
                        chunk_spec.outputBytes, t_done);
                    t2 += stack.writePathCost(
                        chunk_spec.outputBytes);
                    seq.at(t2, [&]() {
                        ctrl::MemRequest wr;
                        wr.kind = ctrl::ReqKind::write;
                        wr.addr = spec.inputBytes +
                                  std::uint64_t(chunk) *
                                      chunk_spec.outputBytes;
                        wr.size = std::uint32_t(
                            chunk_spec.outputBytes);
                        Tick store_started = eq_.curTick();
                        ssd.setCallback(
                            [&, store_started](
                                const ctrl::MemResponse &r2) {
                                ssd_wait += r2.completedAt -
                                            store_started;
                                ++chunk;
                                if (chunk < heteroChunks) {
                                    seq.at(r2.completedAt,
                                           start_chunk);
                                } else {
                                    done = true;
                                    end_tick = r2.completedAt;
                                }
                            });
                        ssd.enqueue(wr);
                    });
                });
            });
        });
        ssd.enqueue(rd);
    };

    seq.at(0, start_chunk);
    while (!done && eq_.step()) {
    }
    panic_if(!done, "%s: run deadlocked on %s", name_.c_str(),
             spec.name.c_str());
    // Drain trailing activity so no component is destroyed with a
    // scheduled event.
    eq_.run();

    // ---------------------------- metrics --------------------------
    res.execTime = end_tick;
    res.hostStackTime = stack.stackStats().cpuBusyTicks;
    res.transferTime = pcie.pcieStats().busyTicks;
    Tick stall_sum = 0;
    std::uint64_t instr = 0;
    for (std::uint32_t i = 0; i < agents; ++i) {
        const accel::PeStats &s = accel.agent(i).peStats();
        stall_sum += s.loadStallTicks + s.storeStallTicks;
        instr += s.instructions;
    }
    // Storage time: agent-side stalls plus the serial SSD phases of
    // the chunk pipeline (reads before compute, writebacks after).
    res.storageStallTime = stall_sum / agents + ssd_wait;
    Tick accounted = res.hostStackTime + res.transferTime +
                     res.storageStallTime;
    res.computeTime =
        res.execTime > accounted ? res.execTime - accounted : 0;
    res.totalInstructions = instr;
    res.ipc = ipc_all;

    // ---------------------------- energy ---------------------------
    const energy::EnergyParams p = energy::EnergyParams::paperDefault();
    energy::EnergyBreakdown e;
    e += accelCoreEnergy(accel, 0, end_tick, agents, p);
    e += hostEnergy(stack, p);
    // The host stays resident for the whole heterogeneous run,
    // coordinating chunk movement and kernel scheduling.
    e.hostStack += energy::wattsOver(p.hostCoordinationWatts, end_tick);
    e += pcieEnergy(pcie, p);
    e += ssdEnergy(ssd, end_tick, p);
    e += dramEnergy(dram.bytesMoved() +
                        2 * spec.totalBytes(), // staging copies
                    dram.capacity(), end_tick, p);
    res.energy = e;

    stats::TimeSeries power("corePowerW");
    for (const auto &pt : act_all.samples()) {
        double watts = double(agents) *
                           (pt.value * p.peActiveWatts +
                            (1.0 - pt.value) * p.peStallWatts) +
                       p.uncoreWatts;
        power.record(pt.when, watts);
    }
    res.corePower = power;
    res.cumulativeEnergy = cumulativeEnergySeries(
        res.corePower, e.total(), 0, end_tick);
    return res;
}

} // namespace systems
} // namespace dramless
