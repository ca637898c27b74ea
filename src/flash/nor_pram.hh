/**
 * @file
 * 9x nm parallel PRAM with a serial-peripheral NOR flash interface
 * (Numonyx P8P; Table I "NOR-intf").
 *
 * Byte-addressable like the 3x nm part, but all transfers serialize
 * over one 16-bit synchronous burst interface. The P8P's four
 * address-range partitions support read-while-write: buffered word
 * programs run in the background of one partition while the bus
 * keeps serving reads from the others. Programs remain glacial
 * (~120 us per buffered 512-byte region, no bank parallelism worth
 * mentioning), which is why the paper finds its writes 10x slower
 * than the 3x nm PRAM and its write bandwidth orders of magnitude
 * behind flash page programming.
 */

#ifndef DRAMLESS_FLASH_NOR_PRAM_HH
#define DRAMLESS_FLASH_NOR_PRAM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "ctrl/request.hh"
#include "sim/completion_queue.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace dramless
{
namespace flash
{

/** NOR-interface PRAM parameters. */
struct NorPramConfig
{
    /** Random access setup time per burst. */
    Tick accessSetup = fromNs(85);
    /** Bus cycle per 16-bit word (synchronous burst, ~166 MHz). */
    Tick busCyclePerWord = fromNs(6);
    /**
     * Program time per 32 bytes through the buffered-program path
     * (~120 us per 512-byte region when streaming).
     */
    Tick programPer32B = fromNs(7500);
    /** Address-range partitions supporting read-while-write. */
    std::uint32_t partitions = 4;
    /** Device capacity. */
    std::uint64_t capacityBytes = 4ull << 30;
};

/** Operation counters. */
struct NorPramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    Tick busyTicks = 0;
};

/**
 * The device: one bus (all transfers serialize) plus per-partition
 * program engines running behind the bus (read-while-write). As the
 * NOR-intf organization's MemoryBackend it admits every request and
 * reports each one when read() or write() says it completes.
 */
class NorPram : public ctrl::MemoryBackend
{
  public:
    NorPram(EventQueue &eq, const NorPramConfig &config,
            std::string name)
        : eventq_(eq), config_(config), name_(std::move(name)),
          completions_(eq, this, name_ + ".completion")
    {
        fatal_if(config.partitions == 0 ||
                     config.partitions > programEnd_.size(),
                 "%s: unsupported partition count", name_.c_str());
    }

    /** @return capacity in bytes. */
    std::uint64_t capacity() const override { return config_.capacityBytes; }

    void
    setCallback(ctrl::CompletionCallback cb) override
    {
        callback_ = std::move(cb);
    }

    bool canAccept(const ctrl::MemRequest &) const override { return true; }

    std::uint64_t
    enqueue(const ctrl::MemRequest &req) override
    {
        std::uint64_t id = nextId_++;
        Tick done = req.kind == ctrl::ReqKind::write
                        ? write(req.addr, req.size)
                        : read(req.addr, req.size);
        completions_.push(done, id);
        return id;
    }

    /**
     * Read @p size bytes at @p addr starting no earlier than
     * @p earliest. Reads need the bus and, thanks to
     * read-while-write, wait only for a program in their own
     * partition. @return completion tick.
     */
    Tick
    read(std::uint64_t addr, std::uint32_t size, Tick earliest = 0)
    {
        checkRange(addr, size);
        Tick start = std::max({eventq_.curTick(), earliest,
                               busFreeAt_,
                               programEnd_[partitionOf(addr)]});
        std::uint64_t words = (size + 1) / 2;
        Tick done = start + config_.accessSetup +
                    words * config_.busCyclePerWord;
        stats_.busyTicks += done - start;
        busFreeAt_ = done;
        ++stats_.reads;
        stats_.bytesRead += size;
        return done;
    }

    /**
     * Program @p size bytes at @p addr: the bus carries the words
     * into the partition's program buffer, then the program runs in
     * the background of that partition (read-while-write).
     * @return tick the program completes (durable).
     */
    Tick
    write(std::uint64_t addr, std::uint32_t size, Tick earliest = 0)
    {
        checkRange(addr, size);
        std::uint32_t part = partitionOf(addr);
        // The partition's previous program must finish before its
        // buffer accepts the next one.
        Tick start = std::max({eventq_.curTick(), earliest,
                               busFreeAt_, programEnd_[part]});
        std::uint64_t words = (size + 1) / 2;
        Tick xferred = start + config_.accessSetup +
                       words * config_.busCyclePerWord;
        busFreeAt_ = xferred; // the bus frees once words are in
        std::uint64_t regions = (size + 31) / 32;
        Tick done = xferred + regions * config_.programPer32B;
        programEnd_[part] = done;
        stats_.busyTicks += done - start;
        ++stats_.writes;
        stats_.bytesWritten += size;
        return done;
    }

    /** @return tick the bus becomes free. */
    Tick busyUntil() const { return busFreeAt_; }

    const NorPramStats &norStats() const { return stats_; }
    const NorPramConfig &config() const { return config_; }

  private:
    void
    complete(const std::uint64_t &id, Tick now)
    {
        if (callback_)
            callback_(ctrl::MemResponse{id, now});
    }

    std::uint32_t
    partitionOf(std::uint64_t addr) const
    {
        return std::uint32_t(addr /
                             (config_.capacityBytes /
                              config_.partitions));
    }

    void
    checkRange(std::uint64_t addr, std::uint32_t size) const
    {
        panic_if(addr + size > config_.capacityBytes,
                 "%s: access beyond capacity", name_.c_str());
        panic_if(size == 0, "%s: empty access", name_.c_str());
    }

    EventQueue &eventq_;
    NorPramConfig config_;
    std::string name_;
    Tick busFreeAt_ = 0;
    std::array<Tick, 8> programEnd_{};
    NorPramStats stats_;
    ctrl::CompletionCallback callback_;
    std::uint64_t nextId_ = 1;
    CompletionQueue<NorPram, std::uint64_t, &NorPram::complete>
        completions_;
};

} // namespace flash
} // namespace dramless

#endif // DRAMLESS_FLASH_NOR_PRAM_HH
