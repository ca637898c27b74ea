/**
 * @file
 * The multi-PE accelerator and its kernel offload/execution model
 * (Figures 6, 8, 9b, 10).
 *
 * One PE is designated the server: it receives the host's PCIe
 * interrupt, downloads the kernel image into the memory backend,
 * schedules agents through the PSC (sleep, store boot address, wake),
 * and owns the MCU that services every agent's L2 misses. The
 * remaining PEs are agents executing the offloaded kernel traces.
 */

#ifndef DRAMLESS_ACCEL_ACCELERATOR_HH
#define DRAMLESS_ACCEL_ACCELERATOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/mcu.hh"
#include "accel/pe.hh"
#include "accel/psc.hh"
#include "sim/event_pool.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace dramless
{
namespace accel
{

/** Accelerator construction parameters. */
struct AcceleratorConfig
{
    /** PEs including the server (paper platform: 8). */
    std::uint32_t numPes = 8;
    PeConfig pe;
    McuConfig mcu;
    /** PCIe interrupt delivery to the server (Figure 9b step 1). */
    Tick hostInterruptLatency = fromUs(2);
    /** PSC suspend latency per agent (step 3). */
    Tick agentSleepLatency = fromUs(5);
    /** Storing the boot/magic address into the agent's L2 (step 4). */
    Tick bootAddressStoreLatency = fromNs(500);
    /** PSC resume latency per agent (step 5). */
    Tick agentWakeLatency = fromUs(20);
    /** Chunk size for image download / boot reads. */
    std::uint32_t imageChunkBytes = 512;
    /** IPC / activity sampling period. */
    Tick sampleInterval = fromUs(20);
};

/** One kernel offload request. */
struct KernelLaunch
{
    /** Per-agent traces; at most numPes-1 entries. */
    std::vector<TraceSource *> agentTraces;
    /** Kernel image size shipped to the accelerator. */
    std::uint64_t imageBytes = 64 * 1024;
    /** Backend address the image is downloaded to. */
    std::uint64_t imageBase = 0;
    /** Skip the download (image already resident). */
    bool imageResident = false;
    /** Output regions: selective-erasing hints issued while the
     *  server loads the kernel (Section V-A). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> outputRegions;
};

/** Aggregate run metrics of one launch. */
struct LaunchMetrics
{
    Tick interruptAt = 0;
    Tick imageDownloadedAt = 0;
    Tick firstAgentStartAt = 0;
    Tick completedAt = 0;
    std::uint64_t totalInstructions = 0;
};

/** The accelerator. */
class Accelerator
{
  public:
    Accelerator(EventQueue &eq, const AcceleratorConfig &config,
                std::string name);

    /** Wire the storage backend into the server's MCU. */
    void attachBackend(ctrl::MemoryBackend *backend);

    /**
     * Offload and execute a kernel (the host-side pushData of
     * Figure 10 lands here). @p on_complete fires when every agent
     * has retired its trace and drained its stores.
     */
    void launch(const KernelLaunch &launch,
                std::function<void(Tick)> on_complete);

    /** @return true while a launch is in progress. */
    bool busy() const { return busy_; }

    /** @return agents available for kernels. */
    std::uint32_t numAgents() const
    {
        return std::uint32_t(agents_.size());
    }

    /** @return agent @p i. */
    ProcessingElement &agent(std::uint32_t i) { return *agents_.at(i); }
    const ProcessingElement &agent(std::uint32_t i) const
    {
        return *agents_.at(i);
    }

    /** Drop every agent's cache contents (between data chunks or
     *  kernels whose address space is reused). */
    void
    invalidateAgentCaches()
    {
        for (auto &pe : agents_)
            pe->invalidateCaches();
    }

    /** @return the server's MCU. */
    Mcu &mcu() { return *mcu_; }
    const Mcu &mcu() const { return *mcu_; }

    /** @return the power/sleep controller. */
    const PowerSleepController &psc() const { return psc_; }

    /** Total-IPC time series (Figures 18/19): instructions retired by
     *  all agents per core-cycle, sampled each sampleInterval. */
    const stats::TimeSeries &ipcSeries() const { return ipcSeries_; }

    /** Mean agent activity fraction per sample (power model input). */
    const stats::TimeSeries &activitySeries() const
    {
        return activitySeries_;
    }

    /** @return metrics of the most recent (or current) launch. */
    const LaunchMetrics &metrics() const { return metrics_; }

    const AcceleratorConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

  private:
    /** Server step: download the next image chunk(s). */
    void downloadImage();
    /** Server step: wake agents one by one through the PSC. */
    void scheduleNextAgent();
    /** Boot one agent: read its image chunks, then start it. */
    void bootAgent(std::uint32_t idx, Tick ready_at);
    /** An agent retired its trace. */
    void agentDone();
    /** Periodic IPC/activity sampling. */
    void sample();

    EventQueue &eventq_;
    AcceleratorConfig config_;
    std::string name_;
    std::unique_ptr<Mcu> mcu_;
    std::vector<std::unique_ptr<ProcessingElement>> agents_;
    PowerSleepController psc_;
    ctrl::MemoryBackend *backend_ = nullptr;

    bool busy_ = false;
    KernelLaunch current_;
    std::function<void(Tick)> onComplete_;
    std::uint32_t activeAgents_ = 0;
    std::uint32_t agentsDone_ = 0;
    std::uint32_t nextAgentToSchedule_ = 0;
    std::uint64_t imageChunksLeft_ = 0;
    Tick lastSampleTick_ = 0;
    LaunchMetrics metrics_;
    stats::TimeSeries ipcSeries_{"totalIpc"};
    stats::TimeSeries activitySeries_{"agentActivity"};
    MemberEvent<Accelerator, &Accelerator::scheduleNextAgent>
        serverEvent_;
    MemberEvent<Accelerator, &Accelerator::sample> sampleEvent_;
    MemberEvent<Accelerator, &Accelerator::downloadImage> imageEvent_;
    /** Per-agent boot callbacks: recycled instead of accumulating a
     *  heap wrapper per boot across launches. */
    EventPool bootPool_;
};

} // namespace accel
} // namespace dramless

#endif // DRAMLESS_ACCEL_ACCELERATOR_HH
