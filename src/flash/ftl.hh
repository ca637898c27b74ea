/**
 * @file
 * Page-mapped, log-structured flash translation layer with greedy
 * garbage collection — the storage firmware substrate behind the
 * Integrated-SLC/MLC/TLC and SSD-based systems of Table I.
 */

#ifndef DRAMLESS_FLASH_FTL_HH
#define DRAMLESS_FLASH_FTL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "flash/flash_device.hh"
#include "sim/paged_array.hh"

namespace dramless
{
namespace flash
{

/** FTL policy parameters. */
struct FtlConfig
{
    /** Fraction of physical capacity reserved as over-provisioning. */
    double overProvision = 0.07;
    /** Start garbage collection when a die's free blocks drop to
     *  this count. */
    std::uint32_t gcFreeBlockThreshold = 2;
};

/** FTL bookkeeping counters. */
struct FtlStats
{
    std::uint64_t hostPagesWritten = 0;
    std::uint64_t hostPagesRead = 0;
    std::uint64_t gcRuns = 0;
    std::uint64_t pagesMigrated = 0;
    std::uint64_t blocksErased = 0;

    /** @return write amplification factor. */
    double
    writeAmplification() const
    {
        if (hostPagesWritten == 0)
            return 1.0;
        return double(hostPagesWritten + pagesMigrated) /
               double(hostPagesWritten);
    }
};

/**
 * Page-mapped FTL over a FlashArray. Translation state is functional;
 * timing flows through the array's resource bookkeeping.
 */
class Ftl
{
  public:
    Ftl(FlashArray &array, const FtlConfig &config, std::string name);

    /** @return logical capacity in bytes exported to the host. */
    std::uint64_t logicalBytes() const;
    /** @return logical page count. */
    std::uint64_t logicalPages() const { return logicalPages_; }

    /**
     * Map @p lpn without any timed operation: models data staged into
     * the device before the evaluation starts (the paper initializes
     * all input data in persistent storage beforehand).
     */
    void populate(std::uint64_t lpn);

    /**
     * Timed read of logical page @p lpn.
     * @param earliest do not start before this tick
     * @return tick the page is in the controller buffer
     */
    Tick readPage(std::uint64_t lpn, Tick earliest);

    /**
     * Timed write of logical page @p lpn: allocates a fresh physical
     * page at the die's append point, invalidates the old copy and
     * runs garbage collection when free blocks run low.
     * @return tick the program (and any triggered GC) completes
     */
    Tick writePage(std::uint64_t lpn, Tick earliest);

    /** @return true when @p lpn has a physical mapping. */
    bool isMapped(std::uint64_t lpn) const;

    const FtlStats &ftlStats() const { return stats_; }

  private:
    struct BlockInfo
    {
        std::uint32_t nextPage = 0;
        std::uint32_t validPages = 0;
        /** Lazily sized reverse map: empty means every entry is -1
         *  (invalid/free), so untouched blocks cost no memory and
         *  construction of a large array costs no time. */
        std::vector<std::int64_t> pageLpn;

        std::int64_t
        lpnAt(std::uint32_t pg) const
        {
            return pageLpn.empty() ? -1 : pageLpn[pg];
        }

        void
        setLpn(std::uint32_t pg, std::int64_t lpn,
               std::uint32_t pages_per_block)
        {
            if (pageLpn.empty())
                pageLpn.assign(pages_per_block, -1);
            pageLpn[pg] = lpn;
        }
    };

    struct DieState
    {
        std::int32_t activeBlock = -1;
        std::deque<std::uint32_t> freeBlocks;
        std::uint64_t nextWriteRR = 0;
    };

    static constexpr std::uint64_t unmapped = ~std::uint64_t(0);

    std::uint64_t
    ppnOf(std::uint32_t die, std::uint32_t block,
          std::uint32_t page) const
    {
        return (std::uint64_t(die) * cfgBlocks_ + block) * cfgPages_ +
               page;
    }

    PhysPage
    decodePpn(std::uint64_t ppn) const
    {
        PhysPage p;
        p.page = std::uint32_t(ppn % cfgPages_);
        std::uint64_t rest = ppn / cfgPages_;
        p.block = std::uint32_t(rest % cfgBlocks_);
        p.die = std::uint32_t(rest / cfgBlocks_);
        return p;
    }

    BlockInfo &blockInfo(std::uint32_t die, std::uint32_t block);

    /** Allocate the next physical page on @p die (no timing). */
    PhysPage allocatePage(std::uint32_t die);

    /** Invalidate the old copy of @p lpn, if any. */
    void invalidate(std::uint64_t lpn);

    /** Greedy GC on @p die. @return completion tick. */
    Tick collectGarbage(std::uint32_t die, Tick earliest);

    FlashArray &array_;
    FtlConfig config_;
    std::string name_;
    std::uint32_t cfgBlocks_;
    std::uint32_t cfgPages_;
    std::uint64_t logicalPages_;
    /** L2P table in 512 KiB pages, allocated on first write: an eager
     *  flat table dominated construction time (the runner builds four
     *  FTLs per sweep repetition). */
    PagedArray<std::uint64_t, 16> l2p_{unmapped};
    std::vector<std::vector<BlockInfo>> blocks_; // [die][block]
    std::vector<DieState> dies_;
    std::uint64_t nextDieRR_ = 0;
    FtlStats stats_;
};

} // namespace flash
} // namespace dramless

#endif // DRAMLESS_FLASH_FTL_HH
