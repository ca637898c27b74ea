/**
 * @file
 * Emulated solid-state drive: firmware + DRAM buffer cache + FTL +
 * flash array. Used both as the external storage of the heterogeneous
 * systems (Hetero, Heterodirect, *-PRAM via the Optane preset) and as
 * the embedded store of the Integrated-SLC/MLC/TLC and PAGE-buffer
 * accelerators.
 */

#ifndef DRAMLESS_FLASH_SSD_HH
#define DRAMLESS_FLASH_SSD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "ctrl/request.hh"
#include "flash/dram_cache.hh"
#include "flash/firmware.hh"
#include "flash/flash_device.hh"
#include "flash/ftl.hh"
#include "sim/completion_queue.hh"
#include "sim/event_queue.hh"

namespace dramless
{
namespace flash
{

/** Full SSD configuration. */
struct SsdConfig
{
    FlashArrayConfig array;
    FtlConfig ftl;
    DramCacheConfig buffer;
    FirmwareConfig firmware = FirmwareConfig::traditionalSsd();

    /** @return SLC-flash SSD (Table I Integrated-SLC / Hetero). */
    static SsdConfig slc();
    /** @return MLC-flash SSD (Table I Integrated-MLC / Hetero). */
    static SsdConfig mlc();
    /** @return TLC-flash SSD (Table I Integrated-TLC). */
    static SsdConfig tlc();
    /** @return Optane-class PRAM SSD (Table I Hetero-PRAM). */
    static SsdConfig optane();
};

/** SSD-level counters. */
struct SsdStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t bufferThrottledWrites = 0;
    /** Sub-page writes that forced a page fetch first. */
    std::uint64_t rmwReads = 0;
};

/**
 * The SSD. Requests are byte-addressed but serviced at page
 * granularity: a sub-page access pays for the whole page (the block-
 * interface cost DRAM-less eliminates). As the embedded store of the
 * integrated organizations it is the MCU's MemoryBackend; it admits
 * every request.
 */
class Ssd : public ctrl::MemoryBackend
{
  public:
    Ssd(EventQueue &eq, const SsdConfig &config, std::string name);

    /** Register the completion callback. */
    void setCallback(ctrl::CompletionCallback cb) override
    {
        callback_ = std::move(cb);
    }

    /** @return logical capacity in bytes. */
    std::uint64_t capacity() const override { return ftl_->logicalBytes(); }

    bool canAccept(const ctrl::MemRequest &) const override { return true; }

    /**
     * Submit a byte-addressed request; it is expanded to page
     * accesses. @return the id reported on completion.
     */
    std::uint64_t enqueue(const ctrl::MemRequest &req) override;

    /** Stage @p size bytes at @p addr as pre-existing data. */
    void populate(std::uint64_t addr, std::uint64_t size);

    /** @return true when no requests are outstanding. */
    bool idle() const { return completions_.empty(); }

    const SsdStats &ssdStats() const { return stats_; }
    const FtlStats &ftlStats() const { return ftl_->ftlStats(); }
    const DramCacheStats &cacheStats() const
    {
        return cache_.cacheStats();
    }
    const FlashArrayStats &arrayStats() const
    {
        return array_.arrayStats();
    }
    const FirmwareModel &firmware() const { return firmware_; }
    const SsdConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

  private:
    /** Report request @p id, due now. */
    void complete(const std::uint64_t &id, Tick now);

    /** Service one page read delivering @p bytes to the requester;
     *  @return completion tick. */
    Tick servicePageRead(std::uint64_t lpn, Tick start,
                         std::uint32_t bytes);
    /**
     * Service one page write; a @p partial write of an uncached page
     * must first read the page (read-modify-write) — the block-
     * interface cost byte-granular stores pay on page devices.
     * @return completion tick.
     */
    Tick servicePageWrite(std::uint64_t lpn, Tick start, bool partial,
                          std::uint32_t bytes);
    /** Handle the eviction an insertion caused. */
    void handleEviction(const DramCache::Eviction &ev, Tick when);

    EventQueue &eventq_;
    SsdConfig config_;
    std::string name_;
    FlashArray array_;
    std::unique_ptr<Ftl> ftl_;
    DramCache cache_;
    FirmwareModel firmware_;
    CompletionQueue<Ssd, std::uint64_t, &Ssd::complete> completions_;
    ctrl::CompletionCallback callback_;
    std::uint64_t nextId_ = 1;
    SsdStats stats_;
};

} // namespace flash
} // namespace dramless

#endif // DRAMLESS_FLASH_SSD_HH
