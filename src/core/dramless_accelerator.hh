/**
 * @file
 * Public facade of the DRAM-less accelerator.
 *
 * This is the API a downstream user programs against: construct the
 * accelerator (PRAM subsystem + FPGA controllers + eight-PE compute
 * fabric), stage data, pack and offload kernels (Figure 10's
 * packData / pushData model), and collect run metrics. Time advances
 * inside the embedded event-driven simulator; every method returns
 * when its simulated effect has completed.
 */

#ifndef DRAMLESS_CORE_DRAMLESS_ACCELERATOR_HH
#define DRAMLESS_CORE_DRAMLESS_ACCELERATOR_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "core/kernel_image.hh"
#include "ctrl/pram_subsystem.hh"
#include "energy/energy_model.hh"
#include "host/pcie.hh"
#include "host/software_stack.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/polybench.hh"

namespace dramless
{
namespace core
{

/**
 * Facade construction parameters. The machine is the paper
 * platform's: eight PEs including the server, IPC/power sampled every
 * 20 us, and energy billed at EnergyParams::paperDefault().
 */
struct DramLessConfig
{
    /** PRAM scheduler (Figure 13 "Final" by default). */
    ctrl::SchedulerConfig scheduler =
        ctrl::SchedulerConfig::finalConfig();
    /** Enable Start-Gap wear leveling. */
    bool wearLeveling = false;
    /** Keep functional backing stores (required for data access). */
    bool functional = true;
};

/** Result of one kernel offload. */
struct OffloadResult
{
    /** Simulated tick the offload was issued. */
    Tick startedAt = 0;
    /** Simulated tick the last agent completed. */
    Tick completedAt = 0;
    /** Wall-clock duration in simulated seconds. */
    double seconds = 0.0;
    /** Instructions retired by all agents. */
    std::uint64_t instructions = 0;
    /** Total-IPC samples over the run. */
    stats::TimeSeries ipc;
    /** Energy consumed by the accelerator during the offload. */
    energy::EnergyBreakdown energy;
};

/**
 * The DRAM-less accelerator. One instance owns a private simulated
 * machine; methods are synchronous over simulated time.
 */
class DramLessAccelerator
{
  public:
    explicit DramLessAccelerator(
        const DramLessConfig &config = DramLessConfig{});
    ~DramLessAccelerator();

    DramLessAccelerator(const DramLessAccelerator &) = delete;
    DramLessAccelerator &operator=(const DramLessAccelerator &) =
        delete;

    /** @return current simulated tick. */
    Tick now() const;

    /** @return usable PRAM capacity in bytes (the image region at
     *  the top of the space is reserved). */
    std::uint64_t capacity() const;

    /** @name Data movement @{ */

    /**
     * Host-initiated timed write: the host pushes @p size bytes over
     * PCIe to the server, which programs them into the PRAM at
     * @p addr. Returns once the data is durable. @p addr and @p size
     * must be 32-byte aligned and @p size nonzero.
     */
    void writeData(std::uint64_t addr, const void *src,
                   std::uint64_t size);

    /**
     * Host-initiated timed read: the server reads @p size bytes at
     * @p addr from the PRAM and pushes them over PCIe to the host.
     * Returns once the data has reached the host. Same alignment and
     * size rules as writeData().
     */
    void readData(std::uint64_t addr, void *dst, std::uint64_t size);

    /** Untimed staging backdoor: place a dataset in the PRAM as the
     *  paper does before each evaluation. */
    void stageData(std::uint64_t addr, const void *src,
                   std::uint64_t size);

    /** Untimed functional readback (verification). */
    void fetchData(std::uint64_t addr, void *dst,
                   std::uint64_t size) const;

    /** @} */

    /** @name Kernel offload (Figure 10) @{ */

    /**
     * Offload a packed kernel image plus per-agent execution traces.
     * The image is pushed over PCIe, downloaded into the PRAM image
     * region, agents boot through the PSC and execute; declared
     * output regions are selectively pre-erased meanwhile.
     */
    OffloadResult offload(
        const KernelImage &image,
        const std::vector<accel::TraceSource *> &traces,
        const std::vector<std::pair<std::uint64_t, std::uint64_t>>
            &output_regions = {});

    /**
     * Convenience: run one Polybench-style workload split across all
     * agents, inputs at @p input_base.
     */
    OffloadResult offload(const workload::WorkloadSpec &spec,
                          std::uint64_t input_base = 0);

    /** Read back and unpack the most recently offloaded image from
     *  PRAM (demonstrates the server's unpackData). */
    KernelImage readBackImage() const;

    /** @} */

    /**
     * Dump the machine's statistics (PRAM channels and modules,
     * MCU, per-agent PE counters) to @p os, one line per stat.
     */
    void dumpStats(std::ostream &os) const;

    /** @return the PRAM subsystem (stats, wear leveling state). */
    const ctrl::PramSubsystem &pram() const { return *pram_; }
    /** @return the compute fabric. */
    const accel::Accelerator &accelerator() const { return *accel_; }
    /** @return the configuration in force. */
    const DramLessConfig &config() const { return config_; }

  private:
    /** Run the event loop until @p done becomes true. */
    void runUntilDone(const bool &done);

    DramLessConfig config_;
    EventQueue eq_;
    std::unique_ptr<ctrl::PramSubsystem> pram_;
    std::unique_ptr<accel::Accelerator> accel_;
    std::unique_ptr<host::SoftwareStack> stack_;
    std::unique_ptr<host::PcieLink> pcie_;
    std::uint64_t imageBase_ = 0;
    std::uint64_t lastImageBytes_ = 0;
    Tick readyAt_ = 0;
};

} // namespace core
} // namespace dramless

#endif // DRAMLESS_CORE_DRAMLESS_ACCELERATOR_HH
