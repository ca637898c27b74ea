#include "flash/ftl.hh"

#include <algorithm>

namespace dramless
{
namespace flash
{

Ftl::Ftl(FlashArray &array, const FtlConfig &config, std::string name)
    : array_(array), config_(config), name_(std::move(name)),
      cfgBlocks_(array.config().blocksPerDie),
      cfgPages_(array.config().pagesPerBlock)
{
    fatal_if(config.overProvision <= 0.0 ||
                 config.overProvision >= 0.5,
             "over-provisioning fraction out of range");
    const auto &acfg = array.config();
    std::uint64_t phys_pages = std::uint64_t(acfg.numDies()) *
                               cfgBlocks_ * cfgPages_;
    logicalPages_ = std::uint64_t(
        double(phys_pages) * (1.0 - config.overProvision));

    blocks_.resize(acfg.numDies());
    dies_.resize(acfg.numDies());
    for (std::uint32_t d = 0; d < acfg.numDies(); ++d) {
        blocks_[d].resize(cfgBlocks_);
        for (std::uint32_t b = 0; b < cfgBlocks_; ++b)
            dies_[d].freeBlocks.push_back(b);
    }
}

std::uint64_t
Ftl::logicalBytes() const
{
    return logicalPages_ * array_.config().media.pageBytes;
}

Ftl::BlockInfo &
Ftl::blockInfo(std::uint32_t die, std::uint32_t block)
{
    return blocks_[die][block];
}

bool
Ftl::isMapped(std::uint64_t lpn) const
{
    panic_if(lpn >= logicalPages_, "%s: lpn out of range",
             name_.c_str());
    return l2p_.get(lpn) != unmapped;
}

PhysPage
Ftl::allocatePage(std::uint32_t die)
{
    DieState &ds = dies_[die];
    if (ds.activeBlock < 0 ||
        blockInfo(die, std::uint32_t(ds.activeBlock)).nextPage >=
            cfgPages_) {
        fatal_if(ds.freeBlocks.empty(),
                 "%s: die %u out of free blocks (logical space "
                 "overcommitted?)",
                 name_.c_str(), die);
        ds.activeBlock = std::int32_t(ds.freeBlocks.front());
        ds.freeBlocks.pop_front();
    }
    BlockInfo &blk = blockInfo(die, std::uint32_t(ds.activeBlock));
    PhysPage p;
    p.die = die;
    p.block = std::uint32_t(ds.activeBlock);
    p.page = blk.nextPage++;
    return p;
}

void
Ftl::invalidate(std::uint64_t lpn)
{
    std::uint64_t old = l2p_.get(lpn);
    if (old == unmapped)
        return;
    PhysPage p = decodePpn(old);
    BlockInfo &blk = blockInfo(p.die, p.block);
    panic_if(blk.validPages == 0, "invalidate on empty block");
    --blk.validPages;
    blk.setLpn(p.page, -1, cfgPages_);
    l2p_.ref(lpn) = unmapped;
}

void
Ftl::populate(std::uint64_t lpn)
{
    panic_if(lpn >= logicalPages_, "%s: lpn out of range",
             name_.c_str());
    if (l2p_.get(lpn) != unmapped)
        return;
    std::uint32_t die =
        std::uint32_t(nextDieRR_++ % array_.config().numDies());
    PhysPage p = allocatePage(die);
    BlockInfo &blk = blockInfo(p.die, p.block);
    blk.setLpn(p.page, std::int64_t(lpn), cfgPages_);
    ++blk.validPages;
    l2p_.ref(lpn) = ppnOf(p.die, p.block, p.page);
}

Tick
Ftl::readPage(std::uint64_t lpn, Tick earliest)
{
    panic_if(lpn >= logicalPages_, "%s: lpn out of range",
             name_.c_str());
    // Reading data that was never written: treat it as pre-staged
    // (the evaluations initialize inputs in storage beforehand).
    if (l2p_.get(lpn) == unmapped)
        populate(lpn);
    ++stats_.hostPagesRead;
    return array_.readPage(decodePpn(l2p_.get(lpn)), earliest);
}

Tick
Ftl::writePage(std::uint64_t lpn, Tick earliest)
{
    panic_if(lpn >= logicalPages_, "%s: lpn out of range",
             name_.c_str());
    invalidate(lpn);
    std::uint32_t die =
        std::uint32_t(nextDieRR_++ % array_.config().numDies());

    Tick t = earliest;
    if (dies_[die].freeBlocks.size() <=
        config_.gcFreeBlockThreshold) {
        t = collectGarbage(die, t);
    }

    PhysPage p = allocatePage(die);
    BlockInfo &blk = blockInfo(p.die, p.block);
    blk.setLpn(p.page, std::int64_t(lpn), cfgPages_);
    ++blk.validPages;
    l2p_.ref(lpn) = ppnOf(p.die, p.block, p.page);
    ++stats_.hostPagesWritten;
    return array_.programPage(p, t);
}

Tick
Ftl::collectGarbage(std::uint32_t die, Tick earliest)
{
    DieState &ds = dies_[die];
    // Greedy victim selection: fewest valid pages among full blocks
    // (excluding the active block and free blocks).
    std::int32_t victim = -1;
    std::uint32_t min_valid = cfgPages_ + 1;
    for (std::uint32_t b = 0; b < cfgBlocks_; ++b) {
        if (std::int32_t(b) == ds.activeBlock)
            continue;
        const BlockInfo &blk = blocks_[die][b];
        if (blk.nextPage < cfgPages_)
            continue; // not yet full (or free)
        if (blk.validPages < min_valid) {
            min_valid = blk.validPages;
            victim = std::int32_t(b);
        }
    }
    if (victim < 0)
        return earliest; // nothing reclaimable

    ++stats_.gcRuns;
    BlockInfo &vic = blocks_[die][std::uint32_t(victim)];
    Tick t = earliest;
    for (std::uint32_t pg = 0; pg < cfgPages_; ++pg) {
        std::int64_t lpn = vic.lpnAt(pg);
        if (lpn < 0)
            continue;
        // Migrate the still-valid page to the append point.
        PhysPage src{die, std::uint32_t(victim), pg};
        t = array_.readPage(src, t);
        PhysPage dst = allocatePage(die);
        BlockInfo &dblk = blockInfo(dst.die, dst.block);
        dblk.setLpn(dst.page, lpn, cfgPages_);
        ++dblk.validPages;
        l2p_.ref(std::uint64_t(lpn)) =
            ppnOf(dst.die, dst.block, dst.page);
        t = array_.programPage(dst, t);
        ++stats_.pagesMigrated;
    }
    vic.nextPage = 0;
    vic.validPages = 0;
    vic.pageLpn.clear();
    t = array_.eraseBlock(die, std::uint32_t(victim), t);
    ++stats_.blocksErased;
    ds.freeBlocks.push_back(std::uint32_t(victim));
    return t;
}

} // namespace flash
} // namespace dramless
