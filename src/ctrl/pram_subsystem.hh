/**
 * @file
 * The complete hardware-automated PRAM subsystem of DRAM-less:
 * two LPDDR2-NVM channels of 16 modules each behind FPGA channel
 * controllers (Figure 6a, Table II), with an initializer handling the
 * boot-up process and optional Start-Gap wear leveling.
 */

#ifndef DRAMLESS_CTRL_PRAM_SUBSYSTEM_HH
#define DRAMLESS_CTRL_PRAM_SUBSYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ctrl/channel_controller.hh"
#include "ctrl/request.hh"
#include "ctrl/scheduler.hh"
#include "ctrl/start_gap.hh"
#include "pram/geometry.hh"
#include "pram/timing.hh"
#include "reliability/fault_model.hh"
#include "sim/event_queue.hh"
#include "sim/id_ring.hh"

namespace dramless
{
namespace ctrl
{

/** Construction parameters of the PRAM subsystem. */
struct SubsystemConfig
{
    /** LPDDR2-NVM channels (Table II: 2). */
    std::uint32_t channels = 2;
    /** PRAM modules per channel (Table II: 16 packages). */
    std::uint32_t modulesPerChannel = 16;
    /** Bytes striped per channel before switching (Section III-B:
     *  512 bytes per channel). */
    std::uint32_t stripeBytes = 512;
    /** Module geometry. */
    pram::PramGeometry geometry = pram::PramGeometry::paperDefault();
    /** Module timing. */
    pram::PramTiming timing = pram::PramTiming::paperDefault();
    /** Scheduler policy. */
    SchedulerConfig scheduler = SchedulerConfig::finalConfig();
    /** Enable Start-Gap wear leveling over stripe-sized lines. */
    bool wearLeveling = false;
    /** Gap move period in writes when wear leveling. */
    std::uint64_t gapMovePeriod = 100;
    /** Keep functional backing stores. */
    bool functional = true;
    /** Modeled boot-up latency of the initializer (auto init,
     *  impedance calibration, burst-length and OW setup). */
    Tick bootLatency = fromUs(150);
    /** Fault injection / endurance knobs (disabled by default, in
     *  which case nothing below the facade changes behavior). */
    reliability::ReliabilityConfig reliability{};
};

/** Aggregated subsystem statistics. */
struct SubsystemStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t wearLevelMoves = 0;
    /** PRAM line writes performed by gap-move copies (these wear the
     *  media like demand writes but are issued internally). */
    std::uint64_t gapMoveWrites = 0;
    /** Bytes written by gap-move copies. */
    std::uint64_t gapMoveBytes = 0;
    /** Worn-out lines remapped into the spare pool. */
    std::uint64_t badLineRemaps = 0;
    /** Spare lines consumed so far (== badLineRemaps). */
    std::uint64_t spareLinesUsed = 0;
    /** Demand write requests served before the first remap
     *  (lifetime-to-first-remap; 0 when no remap happened). */
    std::uint64_t writesBeforeFirstRemap = 0;
    /** Tick of the first bad-line remap (0 when none). */
    Tick firstRemapTick = 0;
};

/**
 * Facade over the per-channel controllers. Splits requests at stripe
 * boundaries, aggregates completions, applies wear leveling, and
 * provides the functional backdoor used to stage datasets. It is the
 * DRAM-less organization's MemoryBackend: the MCU attaches to it
 * directly.
 */
class PramSubsystem : public MemoryBackend
{
  public:
    PramSubsystem(EventQueue &eq, const SubsystemConfig &config,
                  std::string name);

    /**
     * Run the initializer: boot every module (modeled latency) and
     * leave the subsystem ready for traffic.
     * @return tick at which the subsystem is operational.
     */
    Tick initialize();

    /** Register the completion callback for demand requests. */
    void setCallback(CompletionCallback cb) override;

    /** @return usable capacity in bytes. */
    std::uint64_t capacity() const override;

    /** @return true when every channel the request's stripes map to
     *  can queue its piece. */
    bool canAccept(const MemRequest &req) const override;

    /**
     * Admit a request (32-byte aligned). @return the request id
     * reported on completion.
     */
    std::uint64_t enqueue(const MemRequest &req) override;

    /** Selective-erasing hint forwarded to the channels; the range
     *  must lie within capacity(). */
    void hintFutureWrite(std::uint64_t addr,
                         std::uint64_t size) override;

    /** @return true when no demand requests are outstanding. */
    bool idle() const;

    /** Functional (untimed) write used to stage input datasets. */
    void functionalWrite(std::uint64_t addr, const void *src,
                         std::uint64_t len);
    /** Functional (untimed) read used to verify outputs. */
    void functionalRead(std::uint64_t addr, void *dst,
                        std::uint64_t len) const;

    /** @return channel @p i. */
    ChannelController &channel(std::uint32_t i)
    {
        return *channels_.at(i);
    }
    const ChannelController &channel(std::uint32_t i) const
    {
        return *channels_.at(i);
    }
    /** @return number of channels. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(channels_.size());
    }

    /** @return aggregate statistics. */
    const SubsystemStats &subsystemStats() const { return stats_; }

    /** @return the wear-leveling mapper, if enabled. */
    const StartGapMapper *wearLeveler() const
    {
        return wearLevel_ ? &*wearLevel_ : nullptr;
    }

    /** @return spare lines still available for bad-line remapping. */
    std::uint32_t
    spareLinesFree() const
    {
        return spareCount_ - std::uint32_t(stats_.spareLinesUsed);
    }

    /** @return the highest per-word wear across all modules (0 when
     *  injection is disabled). */
    std::uint64_t maxLineWear() const;

    const std::string &name() const { return name_; }
    const SubsystemConfig &config() const { return config_; }

  private:
    /**
     * Walk [addr, addr + len) in address order as pieces that each
     * lie within one stripe (so on one channel), calling
     * @p fn(piece_addr, piece_len) with logical addresses. Stops at
     * the first piece for which @p fn returns false.
     * @return false when stopped early.
     */
    template <typename Fn>
    bool forEachPiece(std::uint64_t addr, std::uint64_t len,
                      Fn &&fn) const;

    /** Map a flat subsystem address to (channel, channel address). */
    std::pair<std::uint32_t, std::uint64_t>
    route(std::uint64_t addr) const;

    /** Inverse of route(): channel-local address back to flat. */
    std::uint64_t unroute(std::uint32_t ch,
                          std::uint64_t chan_addr) const;

    /** Apply the wear-leveling rotation plus bad-line remapping. */
    std::uint64_t remap(std::uint64_t addr) const;

    /** Follow the bad-line remap chain to the live physical line. */
    std::uint64_t resolveLine(std::uint64_t line) const;

    /**
     * Retire the physical line behind channel-local @p chan_addr on
     * channel @p ch into the next spare (fatal when the pool is
     * exhausted), migrating its content.
     * @return the spare line now holding the data.
     */
    std::uint64_t retireLine(std::uint32_t ch,
                             std::uint64_t chan_addr);

    /** A gap-move (internal) write exhausted its retries. */
    void handleInternalWriteFailure(std::uint32_t ch,
                                    std::uint64_t chan_addr);

    /** Issue one contiguous (post-split) piece to its channel. */
    void issuePiece(std::uint64_t outer_id, const MemRequest &piece);

    /** Channel completion handler. */
    void onChannelComplete(std::uint32_t ch, const MemResponse &resp);

    /** Record writes for wear leveling and perform gap moves. */
    void recordWearLevelWrites(std::uint64_t stripes);

    struct OuterRequest
    {
        std::uint32_t remainingPieces = 0;
        Tick latest = 0;
        Tick enqueuedAt = 0;
        bool isWrite = false;
    };

    /** Bookkeeping for one channel-level piece of an outer request
     *  (enough to re-issue it after a bad-line remap). */
    struct PieceInfo
    {
        std::uint64_t outer = 0;
        /** Logical (pre-remap) flat address of the piece. */
        std::uint64_t addr = 0;
        std::uint32_t size = 0;
        bool isWrite = false;
    };

    std::string name_;
    SubsystemConfig config_;
    EventQueue &eventq_;
    std::vector<std::unique_ptr<ChannelController>> channels_;
    /** Per channel: channel request id to piece info (internal
     *  traffic leaves gaps). */
    std::vector<IdRing<PieceInfo>> pieceToOuter_;
    IdRing<OuterRequest> outer_;
    std::uint64_t nextOuterId_ = 1;
    CompletionCallback callback_;
    std::optional<StartGapMapper> wearLevel_;
    bool initialized_ = false;
    SubsystemStats stats_;
    /** Physical stripes across all channels. */
    std::uint64_t physicalStripes_ = 0;
    /** Spare stripes reserved off the top (0 when injection off). */
    std::uint32_t spareCount_ = 0;
    /** Next unused spare line (grows upward to physicalStripes_). */
    std::uint64_t nextSpare_ = 0;
    /** Bad physical line -> replacement line (chains allowed). */
    std::unordered_map<std::uint64_t, std::uint64_t> physRemap_;
};

} // namespace ctrl
} // namespace dramless

#endif // DRAMLESS_CTRL_PRAM_SUBSYSTEM_HH
