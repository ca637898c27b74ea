/**
 * @file
 * State machine of one 3x nm multi-partition PRAM module.
 *
 * The module is a passive protocol target: the FPGA controller issues
 * LPDDR2-NVM commands (pre-active, activate, read/write phase) at times
 * it guarantees to be legal, and the module validates legality, updates
 * internal resources (RABs, RDBs, program buffer, overlay window,
 * partition busy state) and reports completion ticks. Violations of
 * the protocol are simulator bugs and panic.
 */

#ifndef DRAMLESS_PRAM_PRAM_MODULE_HH
#define DRAMLESS_PRAM_PRAM_MODULE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pram/address.hh"
#include "pram/geometry.hh"
#include "pram/overlay_window.hh"
#include "pram/timing.hh"
#include "reliability/fault_model.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/paged_array.hh"
#include "sim/sparse_memory.hh"

namespace dramless
{
namespace pram
{

/** Completion times of a data burst on the DQ pins. */
struct BurstTiming
{
    /** Tick the first data beat appears on the pins. */
    Tick firstData;
    /** Tick the last data beat completes. */
    Tick lastData;
};

/** Outcome classification of a word program, for stats and timing. */
enum class ProgramKind
{
    /** SET-only program of a pristine word (~10 us). */
    pristineProgram,
    /** RESET+SET overwrite of a programmed word (~18 us). */
    overwrite,
    /** RESET-mimicking all-zero program (selective erasing, ~8 us). */
    resetOnly,
};

/** Operation counters of one module. */
struct ModuleStats
{
    std::uint64_t numPreActive = 0;
    std::uint64_t numActivate = 0;
    std::uint64_t numOverlayActivate = 0;
    std::uint64_t numReadBursts = 0;
    std::uint64_t numWriteBursts = 0;
    std::uint64_t numPrograms = 0;
    std::uint64_t numPristinePrograms = 0;
    std::uint64_t numOverwrites = 0;
    std::uint64_t numResetOnlyPrograms = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    /** Program words that failed device-side verification. */
    std::uint64_t numVerifyFailures = 0;
    /** Aggregate ticks partitions spent busy (sensing/programming). */
    Tick partitionBusyTicks = 0;
};

/**
 * One PRAM module (chip): a bank of 16 partitions fronted by four
 * RAB/RDB pairs, a program buffer, and an overlay window. The only
 * command the window executes is the buffered program: the controller
 * never bulk-erases a partition, it pre-RESETs single words with
 * all-zero programs instead (selective erasing, Section V-A).
 */
class PramModule : public Clocked
{
  public:
    /**
     * @param eq event queue
     * @param geom geometry (Section II-A)
     * @param timing characterized timing (Table II)
     * @param name diagnostic name
     * @param functional keep a functional backing store when true
     */
    PramModule(EventQueue &eq, const PramGeometry &geom,
               const PramTiming &timing, std::string name,
               bool functional = true);

    /** @name LPDDR2-NVM protocol interface (driven by the controller)
     *  All commands take effect at the current queue tick. @{ */

    /**
     * Pre-active phase: latch @p upper_row (and the target partition)
     * into RAB @p ba.
     * @return tick when the RAB update completes (tRP).
     */
    Tick preActive(std::uint32_t ba, std::uint64_t upper_row,
                   std::uint32_t partition);

    /**
     * Activate phase: compose the row from RAB @p ba and @p lower_row,
     * then sense the row into the paired RDB (or resolve an overlay
     * window row without touching a partition).
     * @pre the RAB is valid and, for array rows, the partition is idle.
     * @return tick when the RDB holds valid data (tRCD).
     */
    Tick activate(std::uint32_t ba, std::uint64_t lower_row);

    /**
     * Read phase: burst @p len bytes from RDB @p ba starting at
     * @p column.
     * @pre the RDB is valid and ready.
     * @param out optional destination for functional data
     * @return data timing on the pins.
     */
    BurstTiming readBurst(std::uint32_t ba, std::uint32_t column,
                          std::uint32_t len, void *out = nullptr);

    /**
     * Write phase: burst @p len bytes into the overlay window region
     * addressed by RDB @p ba at @p column. Direct array writes are
     * illegal on this device; all persistent writes flow through the
     * overlay window's program buffer.
     * @return data timing; register side effects (e.g. execute) are
     * applied when the burst and write recovery complete.
     */
    BurstTiming writeBurst(std::uint32_t ba, std::uint32_t column,
                           std::uint32_t len, const void *in);

    /** @} */

    /** @name Controller-visible resource state @{ */

    // These accessors run once per row buffer per scheduler
    // feasibility scan — the hottest reads in the whole model — so
    // they are defined inline here rather than out-of-line in the .cc.

    /** @return true when RAB @p ba holds a latched upper row. */
    bool rabValid(std::uint32_t ba) const { return rabs_.at(ba).valid; }
    /** @return the upper row latched in RAB @p ba. */
    std::uint64_t
    rabUpperRow(std::uint32_t ba) const
    {
        return rabs_.at(ba).upperRow;
    }
    /** @return the partition latched in RAB @p ba. */
    std::uint32_t
    rabPartition(std::uint32_t ba) const
    {
        return rabs_.at(ba).partition;
    }

    /** @return true when RDB @p ba holds sensed data. */
    bool rdbValid(std::uint32_t ba) const { return rdbs_.at(ba).valid; }
    /** @return tick at which RDB @p ba data becomes usable. */
    Tick rdbReadyAt(std::uint32_t ba) const { return rdbs_.at(ba).readyAt; }
    /** @return row held by RDB @p ba. */
    std::uint64_t rdbRow(std::uint32_t ba) const { return rdbs_.at(ba).row; }
    /** @return partition of the row held by RDB @p ba. */
    std::uint32_t
    rdbPartition(std::uint32_t ba) const
    {
        return rdbs_.at(ba).partition;
    }
    /** @return true when RDB @p ba resolves into the overlay window. */
    bool rdbIsOverlay(std::uint32_t ba) const { return rdbs_.at(ba).overlay; }

    /** @return tick until which @p partition is busy. */
    Tick
    partitionBusyUntil(std::uint32_t partition) const
    {
        return partitions_.at(partition).busyUntil;
    }
    /** @return tick until which every in-flight program completes. */
    Tick programBusyUntil() const { return programBusyUntil_; }
    /**
     * @return earliest tick a program slot is available: now when
     * fewer than programSlots programs are in flight, otherwise the
     * earliest in-flight completion.
     */
    Tick programSlotFreeAt() const;
    /** @return completion tick of the most recently launched
     *  program. */
    Tick lastProgramEnd() const { return lastProgramEnd_; }

    /** @return number of programs a partition has absorbed (wear). */
    std::uint64_t partitionProgramCount(std::uint32_t partition) const;

    /** @return true when global word @p word_index is pristine
     *  (RESET), i.e. a program to it needs only SET pulses. */
    bool wordIsPristine(std::uint64_t word_index) const;

    /**
     * @return true when this module and @p other answer every
     * controller check and take every protocol command identically
     * from now on: equal RAB/RDB tags and ready ticks, partition busy
     * ticks, program-slot ends still ahead (in any order), last
     * program end, verify flag and overlay-window code, address and
     * size. Two ticks that have both passed compare equal: no check
     * or command tells them apart. Data, pristine state, wear and
     * statistics are not compared: they set a program's latency and
     * verify result, which the controller compares after each
     * execute.
     */
    bool sameSchedulingState(const PramModule &other) const;

    /** @} */

    /** @name Reliability hooks (wear tracking + fault injection) @{ */

    /**
     * Attach a fault model. Per-word wear is tracked only while a
     * model is attached (so the default configuration does zero
     * extra work); @p salt scopes this module's fault decisions so
     * modules with identical traffic fail independently.
     */
    void
    attachFaults(const reliability::FaultModel *faults,
                 std::uint64_t salt)
    {
        faults_ = faults;
        faultSalt_ = salt;
    }

    /**
     * @return true when the most recently launched program reported
     * a verify failure through the overlay-window status register.
     * Valid until the next execute.
     */
    bool
    lastProgramVerifyFailed() const
    {
        return lastProgramVerifyFailed_;
    }

    /** @return writes absorbed by word @p word_index (0 untracked). */
    std::uint64_t
    wordWear(std::uint64_t word_index) const
    {
        auto it = wordWear_.find(word_index);
        return it == wordWear_.end() ? 0 : it->second;
    }

    /** @return the highest per-word wear seen on this module. */
    std::uint64_t maxWordWear() const { return maxWordWear_; }

    /** @} */

    /** @return classification a program of @p len bytes at word
     *  @p word_index would receive, given @p all_zero data. */
    ProgramKind classifyProgram(std::uint64_t word_index,
                                bool all_zero) const;

    /** @return program latency for @p kind. */
    Tick programLatency(ProgramKind kind) const;

    /** Direct functional backdoor (no timing): used to initialize
     *  datasets before timed runs, as the paper initializes data in
     *  persistent storage before each evaluation. */
    void functionalWrite(std::uint64_t addr, const void *src,
                         std::uint64_t len);
    /** Direct functional read (no timing). */
    void functionalRead(std::uint64_t addr, void *dst,
                        std::uint64_t len) const;

    /** @return the overlay window (for initializer configuration). */
    OverlayWindow &overlayWindow() { return window_; }
    const OverlayWindow &overlayWindow() const { return window_; }

    /** @return address decomposer for this geometry. */
    const AddressDecomposer &decomposer() const { return decomposer_; }

    const PramGeometry &geometry() const { return geom_; }
    const PramTiming &timing() const { return timing_; }
    const ModuleStats &moduleStats() const { return stats_; }
    const std::string &name() const { return name_; }

  private:
    struct Rab
    {
        bool valid = false;
        std::uint64_t upperRow = 0;
        std::uint32_t partition = 0;
        Tick readyAt = 0;
    };

    struct Rdb
    {
        bool valid = false;
        std::uint64_t row = 0;
        std::uint32_t partition = 0;
        bool overlay = false;
        Tick readyAt = 0;
        std::vector<std::uint8_t> data;
    };

    struct Partition
    {
        Tick busyUntil = 0;
        std::uint64_t programCount = 0;
    };

    /** Launch the buffered program latched in the overlay window
     *  registers: the words in the program buffer, serially. */
    void execute(Tick start);

    /** Mark a partition busy and account the stats. */
    void occupyPartition(std::uint32_t partition, Tick from, Tick until);

    PramGeometry geom_;
    PramTiming timing_;
    std::string name_;
    AddressDecomposer decomposer_;
    OverlayWindow window_;
    std::vector<Rab> rabs_;
    std::vector<Rdb> rdbs_;
    std::vector<Partition> partitions_;
    Tick programBusyUntil_ = 0;
    Tick lastProgramEnd_ = 0;
    /** Completion ticks of in-flight programs (bounded by
     *  geometry().programSlots). */
    std::vector<Tick> programEnds_;
    /** The word execute() is programming, copied out of the program
     *  buffer (sized once, reused by every program). */
    std::vector<std::uint8_t> programWord_;
    /** Words whose last program was RESET-only and that no functional
     *  write has touched since; every other word is programmed. */
    WordBitmap pristine_;
    std::unique_ptr<SparseMemory> store_;
    ModuleStats stats_;

    /** Optional fault model (not owned); null == injection off. */
    const reliability::FaultModel *faults_ = nullptr;
    std::uint64_t faultSalt_ = 0;
    bool lastProgramVerifyFailed_ = false;
    /** Per-word write counts, tracked only when faults_ is set. */
    std::unordered_map<std::uint64_t, std::uint64_t> wordWear_;
    std::uint64_t maxWordWear_ = 0;
};

/** @return the smallest legal burst covering @p len bytes on a x16
 *  DDR interface (BL4 = 8 B, BL8 = 16 B, BL16 = 32 B). */
BurstLength burstForBytes(std::uint32_t len);

} // namespace pram
} // namespace dramless

#endif // DRAMLESS_PRAM_PRAM_MODULE_HH
