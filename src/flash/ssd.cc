#include "flash/ssd.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace dramless
{
namespace flash
{

SsdConfig
SsdConfig::slc()
{
    SsdConfig cfg;
    cfg.array.media = FlashTiming::slc();
    return cfg;
}

SsdConfig
SsdConfig::mlc()
{
    SsdConfig cfg;
    cfg.array.media = FlashTiming::mlc();
    return cfg;
}

SsdConfig
SsdConfig::tlc()
{
    SsdConfig cfg;
    cfg.array.media = FlashTiming::tlc();
    return cfg;
}

SsdConfig
SsdConfig::optane()
{
    SsdConfig cfg;
    cfg.array.media = FlashTiming::optane();
    // PRAM SSDs ship many small dice; keep capacity comparable by
    // scaling block count for the smaller 4 KiB sector.
    cfg.array.blocksPerDie = 1024;
    cfg.buffer.pageBytes = cfg.array.media.pageBytes;
    // No erase, so garbage collection is a no-op cost-wise, but the
    // mapping machinery still runs.
    return cfg;
}

Ssd::Ssd(EventQueue &eq, const SsdConfig &config, std::string name)
    : eventq_(eq), config_(config), name_(std::move(name)),
      array_(eq, config.array, name_ + ".array"),
      cache_(config.buffer, name_ + ".buffer"),
      firmware_(config.firmware, name_ + ".fw"),
      completions_(eq, this, name_ + ".completion")
{
    fatal_if(config.buffer.pageBytes != config.array.media.pageBytes,
             "%s: buffer page size must match media page size",
             name_.c_str());
    ftl_ = std::make_unique<Ftl>(array_, config.ftl, name_ + ".ftl");
}

void
Ssd::populate(std::uint64_t addr, std::uint64_t size)
{
    std::uint32_t page = config_.array.media.pageBytes;
    std::uint64_t first = addr / page;
    std::uint64_t last = (addr + size - 1) / page;
    for (std::uint64_t lpn = first; lpn <= last; ++lpn)
        ftl_->populate(lpn);
}

std::uint64_t
Ssd::enqueue(const ctrl::MemRequest &req)
{
    fatal_if(req.size == 0, "%s: empty request", name_.c_str());
    fatal_if(req.addr + req.size > capacity(),
             "%s: request beyond capacity", name_.c_str());

    std::uint32_t page = config_.array.media.pageBytes;
    std::uint64_t first = req.addr / page;
    std::uint64_t last = (req.addr + req.size - 1) / page;
    bool is_write = (req.kind == ctrl::ReqKind::write);
    if (is_write) {
        ++stats_.writeRequests;
        stats_.bytesWritten += req.size;
    } else {
        ++stats_.readRequests;
        stats_.bytesRead += req.size;
    }

    Tick latest = eventq_.curTick();
    for (std::uint64_t lpn = first; lpn <= last; ++lpn) {
        // Host interface + firmware processing per page command.
        Tick fw_done = firmware_.service(eventq_.curTick());
        std::uint64_t lo = std::max<std::uint64_t>(req.addr,
                                                   lpn * page);
        std::uint64_t hi = std::min<std::uint64_t>(
            req.addr + req.size, (lpn + 1) * page);
        std::uint32_t covered = std::uint32_t(hi - lo);
        Tick done;
        if (is_write) {
            bool partial = covered < page;
            done = servicePageWrite(lpn, fw_done, partial, covered);
        } else {
            done = servicePageRead(lpn, fw_done, covered);
        }
        latest = std::max(latest, done);
    }

    std::uint64_t id = nextId_++;
    completions_.push(latest, id);
    return id;
}

Tick
Ssd::servicePageRead(std::uint64_t lpn, Tick start,
                     std::uint32_t bytes)
{
    // A buffer hit only moves the requested bytes out of the DRAM; a
    // miss pays the full page fetch first (the block-interface cost).
    if (cache_.lookup(lpn)) {
        Tick done = start + cache_.accessTime(bytes);
        if (auto *t = trace::current())
            t->complete(trace::catFlash, name_, "page.read.hit",
                        start, done);
        return done;
    }

    Tick flash_done = ftl_->readPage(lpn, start);
    DramCache::Eviction ev = cache_.insert(lpn, false);
    handleEviction(ev, flash_done);
    Tick done = flash_done + cache_.accessTime(bytes);
    if (auto *t = trace::current())
        t->complete(trace::catFlash, name_, "page.read.miss", start,
                    done);
    return done;
}

Tick
Ssd::servicePageWrite(std::uint64_t lpn, Tick start, bool partial,
                      std::uint32_t bytes)
{
    Tick first_start = start;
    if (partial && !cache_.contains(lpn)) {
        // Read-modify-write: fetch the page before merging the
        // sub-page store into it.
        ++stats_.rmwReads;
        if (auto *t = trace::current())
            t->instant(trace::catFlash, name_, "page.write.rmw",
                       start);
        start = ftl_->readPage(lpn, start);
        DramCache::Eviction ev = cache_.insert(lpn, false);
        handleEviction(ev, start);
    }
    Tick dram_done = start + cache_.accessTime(bytes);
    // Insert before the watermark check: the write being serviced
    // counts toward the dirty population, so dirtyWatermark = 0.0
    // throttles every buffered write (and 1.0 never throttles).
    DramCache::Eviction ev = cache_.insert(lpn, true);
    handleEviction(ev, dram_done);
    if (cache_.overDirtyWatermark()) {
        // Throttled: synchronously flush the coldest dirty page so
        // the writer proceeds at the flash program rate, amortized
        // over a page's worth of buffered writes.
        std::uint64_t victim;
        if (cache_.oldestDirty(victim)) {
            ++stats_.bufferThrottledWrites;
            dram_done = ftl_->writePage(victim, dram_done);
            cache_.markClean(victim);
            if (auto *t = trace::current())
                t->instant(trace::catFlash, name_,
                           "page.write.throttled", dram_done);
        }
    }
    if (auto *t = trace::current()) {
        t->complete(trace::catFlash, name_, "page.write", first_start,
                    dram_done);
        t->counter(trace::catFlash, name_, "dirtyPages", dram_done,
                   double(cache_.dirtyPages()));
    }
    return dram_done;
}

void
Ssd::handleEviction(const DramCache::Eviction &ev, Tick when)
{
    if (!ev.evicted || !ev.dirty)
        return;
    // Asynchronous writeback of the victim; it occupies the FTL/flash
    // resources but does not delay the request that evicted it.
    ftl_->writePage(ev.lpn, when);
}

void
Ssd::complete(const std::uint64_t &id, Tick now)
{
    if (callback_)
        callback_(ctrl::MemResponse{id, now});
}

} // namespace flash
} // namespace dramless
