/**
 * @file
 * The two memory backends that are not storage devices: the
 * accelerator's internal DRAM and the storage-firmware stage of the
 * "DRAM-less (firmware)" configuration. The storage devices
 * themselves (ctrl::PramSubsystem, flash::Ssd, flash::NorPram) are
 * ctrl::MemoryBackends and attach to the MCU directly.
 */

#ifndef DRAMLESS_SYSTEMS_BACKENDS_HH
#define DRAMLESS_SYSTEMS_BACKENDS_HH

#include <cstdint>
#include <string>

#include "ctrl/request.hh"
#include "flash/firmware.hh"
#include "sim/completion_queue.hh"
#include "sim/event_queue.hh"
#include "sim/id_ring.hh"

namespace dramless
{
namespace systems
{

/**
 * Decorator inserting a storage-firmware execution stage in front of
 * any backend: the "DRAM-less (firmware)" configuration, where a
 * 3-core embedded CPU replaces the hardware automation (Section VI).
 */
class FirmwareFrontedBackend : public ctrl::MemoryBackend
{
  public:
    FirmwareFrontedBackend(EventQueue &eq, ctrl::MemoryBackend &inner,
                           const flash::FirmwareConfig &fw,
                           std::string name);

    void setCallback(ctrl::CompletionCallback cb) override;
    bool canAccept(const ctrl::MemRequest &req) const override;
    std::uint64_t enqueue(const ctrl::MemRequest &req) override;
    void hintFutureWrite(std::uint64_t addr,
                         std::uint64_t size) override;
    std::uint64_t capacity() const override;

    const flash::FirmwareModel &firmware() const { return fw_; }

  private:
    struct Deferred
    {
        std::uint64_t id;
        ctrl::MemRequest req;
    };

    /** Hand @p d, done with firmware service, to the inner backend. */
    void issue(const Deferred &d, Tick now);

    EventQueue &eventq_;
    ctrl::MemoryBackend &inner_;
    flash::FirmwareModel fw_;
    std::string name_;
    ctrl::CompletionCallback cb_;
    std::uint64_t nextId_ = 1;
    /** Requests waiting out their firmware service time. */
    CompletionQueue<FirmwareFrontedBackend, Deferred,
                    &FirmwareFrontedBackend::issue>
        deferred_;
    /** Outer ids by inner id. */
    IdRing<std::uint64_t> innerToOuter_;
};

/**
 * Flat DRAM backend: the internal accelerator DRAM of the
 * conventional heterogeneous systems and the ideal system.
 */
class DramBackend : public ctrl::MemoryBackend
{
  public:
    struct Config
    {
        std::uint64_t capacityBytes = 1ull << 30;
        Tick accessLatency = fromNs(150);
        /** TMS320C6678-class DDR3 effective bandwidth. */
        double bytesPerSec = 4.2e9;
    };

    DramBackend(EventQueue &eq, const Config &config,
                std::string name);

    void setCallback(ctrl::CompletionCallback cb) override;
    bool canAccept(const ctrl::MemRequest &req) const override;
    std::uint64_t enqueue(const ctrl::MemRequest &req) override;
    std::uint64_t capacity() const override;

    /** @return total bytes moved (for DRAM energy). */
    std::uint64_t bytesMoved() const { return bytesMoved_; }

  private:
    /** Report request @p id, due now. */
    void complete(const std::uint64_t &id, Tick now);

    EventQueue &eventq_;
    Config config_;
    std::string name_;
    ctrl::CompletionCallback cb_;
    std::uint64_t nextId_ = 1;
    Tick busyUntil_ = 0;
    std::uint64_t bytesMoved_ = 0;
    CompletionQueue<DramBackend, std::uint64_t, &DramBackend::complete>
        pending_;
};

} // namespace systems
} // namespace dramless

#endif // DRAMLESS_SYSTEMS_BACKENDS_HH
