/**
 * @file
 * Tag-only set-associative cache model used for the per-PE L1 and L2
 * (Figure 6a: 64 KiB L1, 512 KiB L2 per PE).
 */

#ifndef DRAMLESS_ACCEL_CACHE_HH
#define DRAMLESS_ACCEL_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace dramless
{
namespace accel
{

/** Cache layout parameters. */
struct CacheConfig
{
    std::uint64_t capacityBytes = 64 * 1024;
    std::uint32_t blockBytes = 64;
    std::uint32_t associativity = 4;
    /** Access latency in core cycles. */
    std::uint32_t latencyCycles = 1;

    /** @return TI C66x-like 64 KiB L1D. */
    static CacheConfig
    l1Default()
    {
        return CacheConfig{64 * 1024, 64, 4, 1};
    }

    /**
     * @return 512 KiB L2 with 1 KiB blocks: the server issues memory
     * requests of 512 bytes per channel (Section III-B), i.e. 1 KiB
     * across the two LPDDR2-NVM channels per L2 fill.
     */
    static CacheConfig
    l2Default()
    {
        return CacheConfig{512 * 1024, 1024, 8, 8};
    }
};

/** Cache activity counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    missRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? double(misses) / double(total) : 0.0;
    }
};

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty block was evicted and must be written back. */
    bool writeback = false;
    /** Block-aligned address of the evicted dirty block. */
    std::uint64_t writebackAddr = 0;
};

/** Tag-only LRU set-associative cache. */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheConfig &config, std::string name)
        : config_(config), name_(std::move(name))
    {
        fatal_if(config.blockBytes == 0 ||
                     (config.blockBytes & (config.blockBytes - 1)),
                 "%s: block size must be a power of two",
                 name_.c_str());
        blockShift_ = std::uint32_t(__builtin_ctz(config.blockBytes));
        std::uint64_t blocks =
            config.capacityBytes / config.blockBytes;
        fatal_if(blocks == 0 || blocks % config.associativity != 0,
                 "%s: capacity/associativity mismatch", name_.c_str());
        numSets_ = blocks / config.associativity;
        fatal_if(numSets_ & (numSets_ - 1),
                 "%s: set count must be a power of two",
                 name_.c_str());
        sets_.assign(blocks, Line{});
    }

    /**
     * Access the block containing @p addr.
     * @param is_write mark the block dirty on hit/fill
     * @param allocate fill the block on miss
     * @return hit/miss and any dirty eviction
     */
    CacheAccessResult
    access(std::uint64_t addr, bool is_write, bool allocate = true)
    {
        CacheAccessResult res;
        std::uint64_t block = addr >> blockShift_;
        std::uint64_t set = block & (numSets_ - 1);
        Line *lines = &sets_[set * config_.associativity];

        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (lines[w].valid && lines[w].tag == block) {
                res.hit = true;
                lines[w].lastUse = ++useClock_;
                lines[w].dirty |= is_write;
                ++stats_.hits;
                return res;
            }
        }
        ++stats_.misses;
        if (!allocate)
            return res;

        // LRU victim.
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < config_.associativity; ++w) {
            if (!lines[w].valid) {
                victim = w;
                break;
            }
            if (lines[w].lastUse < lines[victim].lastUse)
                victim = w;
        }
        if (lines[victim].valid && lines[victim].dirty) {
            res.writeback = true;
            res.writebackAddr = lines[victim].tag << blockShift_;
            ++stats_.writebacks;
        }
        lines[victim] =
            Line{true, is_write, block, ++useClock_};
        return res;
    }

    /** @return true when the block holding @p addr is resident
     *  (no side effects). */
    bool
    contains(std::uint64_t addr) const
    {
        std::uint64_t block = addr >> blockShift_;
        std::uint64_t set = block & (numSets_ - 1);
        const Line *lines = &sets_[set * config_.associativity];
        for (std::uint32_t w = 0; w < config_.associativity; ++w) {
            if (lines[w].valid && lines[w].tag == block)
                return true;
        }
        return false;
    }

    /** Drop every line (kernel switch). Dirty contents are assumed
     *  flushed by the caller's writeback accounting. */
    void
    invalidateAll()
    {
        for (auto &line : sets_)
            line = Line{};
    }

    /** @return block-aligned addresses of every dirty line. */
    std::vector<std::uint64_t>
    dirtyBlocks() const
    {
        std::vector<std::uint64_t> out;
        for (const auto &line : sets_) {
            if (line.valid && line.dirty)
                out.push_back(line.tag << blockShift_);
        }
        return out;
    }

    /** Clear every dirty bit (after a flush was accounted). */
    void
    cleanAll()
    {
        for (auto &line : sets_)
            line.dirty = false;
    }

    /** Block-aligned base of the block containing @p addr. */
    std::uint64_t
    blockBase(std::uint64_t addr) const
    {
        return addr >> blockShift_ << blockShift_;
    }

    const CacheConfig &config() const { return config_; }
    const CacheStats &cacheStats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    CacheConfig config_;
    std::string name_;
    /** log2(blockBytes). */
    std::uint32_t blockShift_ = 0;
    std::uint64_t numSets_;
    std::vector<Line> sets_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace accel
} // namespace dramless

#endif // DRAMLESS_ACCEL_CACHE_HH
