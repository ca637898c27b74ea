/**
 * @file
 * Sparse functional backing store.
 *
 * Device models (PRAM, flash, DRAM buffers) expose capacities in the
 * gigabyte range; a dense allocation would be wasteful for timing
 * simulations that touch a fraction of the space. SparseMemory allocates
 * fixed-size blocks on first write and reads zeros elsewhere.
 *
 * Accesses are strongly block-local (row-buffer bursts walk a 4 KiB
 * block in 32-byte pieces), so a one-entry MRU cache in front of the
 * hash lookup turns almost every access into a pointer compare.
 */

#ifndef DRAMLESS_SIM_SPARSE_MEMORY_HH
#define DRAMLESS_SIM_SPARSE_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace dramless
{

/** Byte-addressable sparse memory with copy-on-write block allocation. */
class SparseMemory
{
  public:
    /**
     * @param capacity_bytes addressable size; accesses beyond it panic
     * @param block_bytes allocation granule (power of two)
     */
    explicit SparseMemory(std::uint64_t capacity_bytes,
                          std::uint32_t block_bytes = 4096)
        : capacity_(capacity_bytes), blockBytes_(block_bytes)
    {
        panic_if(block_bytes == 0 || (block_bytes & (block_bytes - 1)),
                 "block size must be a power of two");
    }

    /** @return addressable capacity in bytes. */
    std::uint64_t capacity() const { return capacity_; }

    /** Read @p len bytes at @p addr into @p out. */
    void
    read(std::uint64_t addr, void *out, std::uint64_t len) const
    {
        checkRange(addr, len);
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            std::uint64_t block = addr / blockBytes_;
            std::uint32_t off = std::uint32_t(addr % blockBytes_);
            std::uint64_t chunk = std::min<std::uint64_t>(
                len, blockBytes_ - off);
            const std::vector<std::uint8_t> *data = findBlock(block);
            if (data == nullptr)
                std::memset(dst, 0, chunk);
            else
                std::memcpy(dst, data->data() + off, chunk);
            dst += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /** Write @p len bytes from @p src to @p addr. */
    void
    write(std::uint64_t addr, const void *src, std::uint64_t len)
    {
        checkRange(addr, len);
        auto *s = static_cast<const std::uint8_t *>(src);
        while (len > 0) {
            std::uint64_t block = addr / blockBytes_;
            std::uint32_t off = std::uint32_t(addr % blockBytes_);
            std::uint64_t chunk = std::min<std::uint64_t>(
                len, blockBytes_ - off);
            std::memcpy(materializeBlock(block).data() + off, s,
                        chunk);
            s += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    /** @return number of blocks physically allocated. */
    std::size_t allocatedBlocks() const { return blocks_.size(); }

  private:
    void
    checkRange(std::uint64_t addr, std::uint64_t len) const
    {
        panic_if(addr + len > capacity_ || addr + len < addr,
                 "sparse memory access [%llx, +%llu) out of range",
                 (unsigned long long)addr, (unsigned long long)len);
    }

    /** @return the block's storage, or null when never written. */
    const std::vector<std::uint8_t> *
    findBlock(std::uint64_t block) const
    {
        if (block == mruBlock_)
            return mruData_;
        auto it = blocks_.find(block);
        // Cache misses too: repeated reads of an untouched block
        // (zeros) shouldn't re-probe the hash table every burst.
        mruBlock_ = block;
        mruData_ = it == blocks_.end() ? nullptr : &it->second;
        return mruData_;
    }

    /** @return the block's storage, allocating it zeroed if absent. */
    std::vector<std::uint8_t> &
    materializeBlock(std::uint64_t block)
    {
        if (block == mruBlock_ && mruData_ != nullptr)
            return const_cast<std::vector<std::uint8_t> &>(*mruData_);
        auto &data = blocks_[block];
        if (data.empty())
            data.assign(blockBytes_, 0);
        // Map values are node-stable and blocks are never freed, so
        // the cached pointer stays valid.
        mruBlock_ = block;
        mruData_ = &data;
        return data;
    }

    std::uint64_t capacity_;
    std::uint32_t blockBytes_;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> blocks_;
    mutable std::uint64_t mruBlock_ = ~std::uint64_t(0);
    mutable const std::vector<std::uint8_t> *mruData_ = nullptr;
};

} // namespace dramless

#endif // DRAMLESS_SIM_SPARSE_MEMORY_HH
