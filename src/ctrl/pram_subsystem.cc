#include "ctrl/pram_subsystem.hh"

#include <algorithm>
#include <vector>

#include "sim/trace.hh"

namespace dramless
{
namespace ctrl
{

PramSubsystem::PramSubsystem(EventQueue &eq,
                             const SubsystemConfig &config,
                             std::string name)
    : name_(std::move(name)), config_(config), eventq_(eq),
      outer_(name_ + ".outer")
{
    fatal_if(config.channels == 0, "subsystem needs channels");
    fatal_if(config.stripeBytes == 0 ||
                 config.stripeBytes % config.geometry.rowBufferBytes !=
                     0,
             "stripe must be a multiple of the %u-byte access unit",
             config.geometry.rowBufferBytes);
    channels_.reserve(config.channels);
    pieceToOuter_.reserve(config.channels);
    for (std::uint32_t c = 0; c < config.channels; ++c) {
        const std::string ch_name = name_ + csprintf(".ch%u", c);
        channels_.push_back(std::make_unique<ChannelController>(
            eq, config.modulesPerChannel, config.geometry,
            config.timing, config.scheduler, ch_name,
            config.functional));
        pieceToOuter_.emplace_back(ch_name + ".pieces");
        channels_[c]->setCallback(
            [this, c](const MemResponse &resp) {
                onChannelComplete(c, resp);
            });
        if (config.reliability.enabled)
            channels_[c]->configureReliability(config.reliability, c);
    }
    physicalStripes_ = channels_.front()->capacity() *
                       config.channels / config.stripeBytes;
    spareCount_ = config.reliability.enabled
                      ? config.reliability.spareLines
                      : 0;
    fatal_if(physicalStripes_ <= spareCount_,
             "%s: capacity too small for %u spare lines",
             name_.c_str(), spareCount_);
    // Spares are carved off the top of physical capacity and handed
    // out in increasing order as lines wear out.
    nextSpare_ = physicalStripes_ - spareCount_;
    if (config.wearLeveling) {
        std::uint64_t avail = physicalStripes_ - spareCount_;
        fatal_if(avail < 2, "capacity too small for wear leveling");
        wearLevel_.emplace(avail - 1, config.gapMovePeriod);
    }
}

Tick
PramSubsystem::initialize()
{
    initialized_ = true;
    return eventq_.curTick() + config_.bootLatency;
}

void
PramSubsystem::setCallback(CompletionCallback cb)
{
    callback_ = std::move(cb);
}

std::uint64_t
PramSubsystem::capacity() const
{
    if (wearLevel_)
        return wearLevel_->numLines() * config_.stripeBytes;
    return (physicalStripes_ - spareCount_) * config_.stripeBytes;
}

template <typename Fn>
bool
PramSubsystem::forEachPiece(std::uint64_t addr, std::uint64_t len,
                            Fn &&fn) const
{
    const std::uint64_t end = addr + len;
    while (addr < end) {
        const std::uint64_t piece_end = std::min(
            end, (addr / config_.stripeBytes + 1) * config_.stripeBytes);
        if (!fn(addr, piece_end - addr))
            return false;
        addr = piece_end;
    }
    return true;
}

std::pair<std::uint32_t, std::uint64_t>
PramSubsystem::route(std::uint64_t addr) const
{
    std::uint64_t stripe = addr / config_.stripeBytes;
    std::uint32_t ch = std::uint32_t(stripe % channels_.size());
    std::uint64_t chan_addr =
        (stripe / channels_.size()) * config_.stripeBytes +
        addr % config_.stripeBytes;
    return {ch, chan_addr};
}

std::uint64_t
PramSubsystem::unroute(std::uint32_t ch,
                       std::uint64_t chan_addr) const
{
    std::uint64_t stripe =
        (chan_addr / config_.stripeBytes) * channels_.size() + ch;
    return stripe * config_.stripeBytes +
           chan_addr % config_.stripeBytes;
}

std::uint64_t
PramSubsystem::resolveLine(std::uint64_t line) const
{
    auto it = physRemap_.find(line);
    while (it != physRemap_.end()) {
        line = it->second;
        it = physRemap_.find(line);
    }
    return line;
}

std::uint64_t
PramSubsystem::remap(std::uint64_t addr) const
{
    std::uint64_t line = addr / config_.stripeBytes;
    if (wearLevel_)
        line = wearLevel_->map(line);
    if (!physRemap_.empty())
        line = resolveLine(line);
    return line * config_.stripeBytes + addr % config_.stripeBytes;
}

bool
PramSubsystem::canAccept(const MemRequest &req) const
{
    return forEachPiece(req.addr, req.size,
                        [&](std::uint64_t addr, std::uint64_t len) {
        auto [ch, chan_addr] = route(remap(addr));
        MemRequest piece = req;
        piece.addr = chan_addr;
        piece.size = std::uint32_t(len);
        return channels_[ch]->canAccept(piece);
    });
}

std::uint64_t
PramSubsystem::enqueue(const MemRequest &req)
{
    fatal_if(req.size == 0, "empty request");
    fatal_if(req.addr + req.size > capacity(),
             "%s: request beyond subsystem capacity", name_.c_str());
    if (!initialized_) {
        warn("%s: traffic before initialize(); booting implicitly",
             name_.c_str());
        initialized_ = true;
    }

    std::uint64_t id = nextOuterId_++;
    OuterRequest &outer = outer_.insert(id);
    outer.enqueuedAt = eventq_.curTick();
    outer.isWrite = (req.kind == ReqKind::write);

    if (req.kind == ReqKind::write) {
        ++stats_.writeRequests;
        stats_.bytesWritten += req.size;
    } else {
        ++stats_.readRequests;
        stats_.bytesRead += req.size;
    }

    // Split at stripe boundaries; each piece lands on one channel.
    const std::uint64_t pieces =
        (req.addr + req.size - 1) / config_.stripeBytes -
        req.addr / config_.stripeBytes + 1;
    outer.remainingPieces = std::uint32_t(pieces);
    if (auto *t = trace::current()) {
        t->counter(trace::catCtrl, name_, "stripePieces",
                   eventq_.curTick(), double(pieces));
        t->counter(trace::catCtrl, name_, "outstandingRequests",
                   eventq_.curTick(), double(outer_.size()));
    }
    forEachPiece(req.addr, req.size,
                 [&](std::uint64_t addr, std::uint64_t len) {
        MemRequest piece;
        piece.kind = req.kind;
        piece.addr = addr;
        piece.size = std::uint32_t(len);
        std::uint64_t off = addr - req.addr;
        if (req.readInto != nullptr)
            piece.readInto =
                static_cast<std::uint8_t *>(req.readInto) + off;
        if (req.writeFrom != nullptr)
            piece.writeFrom =
                static_cast<const std::uint8_t *>(req.writeFrom) + off;
        issuePiece(id, piece);
        return true;
    });

    if (wearLevel_ && req.kind == ReqKind::write)
        recordWearLevelWrites(pieces);
    return id;
}

void
PramSubsystem::issuePiece(std::uint64_t outer_id,
                          const MemRequest &piece)
{
    MemRequest routed = piece;
    auto [ch, chan_addr] = route(remap(piece.addr));
    routed.addr = chan_addr;
    std::uint64_t piece_id = channels_[ch]->enqueue(routed);
    pieceToOuter_[ch].insert(piece_id) =
        PieceInfo{outer_id, piece.addr, piece.size,
                  piece.kind == ReqKind::write};
}

std::uint64_t
PramSubsystem::retireLine(std::uint32_t ch, std::uint64_t chan_addr)
{
    std::uint64_t bad = unroute(ch, chan_addr) / config_.stripeBytes;
    fatal_if(stats_.spareLinesUsed >= spareCount_,
             "%s: spare pool exhausted (physical line %llu failed "
             "with all %u spares consumed)",
             name_.c_str(), (unsigned long long)bad, spareCount_);
    std::uint64_t spare = nextSpare_++;
    physRemap_[bad] = spare;
    ++stats_.badLineRemaps;
    ++stats_.spareLinesUsed;
    if (stats_.badLineRemaps == 1) {
        stats_.writesBeforeFirstRemap = stats_.writeRequests;
        stats_.firstRemapTick = eventq_.curTick();
    }
    warn("%s: remapped worn-out line %llu to spare %llu (%u/%u "
         "spares used)",
         name_.c_str(), (unsigned long long)bad,
         (unsigned long long)spare,
         std::uint32_t(stats_.spareLinesUsed), spareCount_);
    if (auto *t = trace::current()) {
        t->instant(trace::catCtrl, name_, "reliability.remap",
                   eventq_.curTick());
        t->counter(trace::catCtrl, name_, "spareLinesFree",
                   eventq_.curTick(), double(spareLinesFree()));
    }
    // Migrate the stripe's content so reads keep working: the module
    // store retains data even for verify-failed programs (the write
    // driver still toggled the cells; they just won't hold reliably).
    if (config_.functional) {
        std::vector<std::uint8_t> buf(config_.stripeBytes);
        auto [fch, faddr] = route(bad * config_.stripeBytes);
        channels_[fch]->functionalRead(faddr, buf.data(), buf.size());
        auto [tch, taddr] = route(spare * config_.stripeBytes);
        channels_[tch]->functionalWrite(taddr, buf.data(),
                                        buf.size());
    }
    return spare;
}

void
PramSubsystem::handleInternalWriteFailure(std::uint32_t ch,
                                          std::uint64_t chan_addr)
{
    // A gap-move copy exhausted its retries: retire the line and
    // redo the copy against the spare (completion again ignored).
    std::uint64_t spare = retireLine(ch, chan_addr);
    auto [tch, taddr] = route(spare * config_.stripeBytes);
    MemRequest internal;
    internal.kind = ReqKind::write;
    internal.addr = taddr;
    internal.size = config_.stripeBytes;
    channels_[tch]->enqueue(internal);
}

void
PramSubsystem::onChannelComplete(std::uint32_t ch,
                                 const MemResponse &resp)
{
    auto &pieces = pieceToOuter_[ch];
    if (pieces.find(resp.id) == nullptr) {
        // Internal traffic (wear-leveling copy): only its failure
        // needs handling.
        if (resp.failed)
            handleInternalWriteFailure(ch, resp.failedAddr);
        return;
    }
    const PieceInfo info = pieces.take(resp.id);
    std::uint64_t outer_id = info.outer;

    if (resp.failed && info.isWrite) {
        // The piece hit a worn-out line: remap it to a spare and
        // re-issue against the new mapping. The outer request stays
        // pending and completes when the re-issued piece does —
        // graceful degradation, fatal only on spare exhaustion.
        retireLine(ch, resp.failedAddr);
        MemRequest piece;
        piece.kind = ReqKind::write;
        piece.addr = info.addr;
        piece.size = info.size;
        std::vector<std::uint8_t> buf;
        if (config_.functional) {
            // Re-read through the new mapping (the migrated copy) so
            // the replayed write carries the original data.
            buf.resize(info.size);
            functionalRead(info.addr, buf.data(), buf.size());
            piece.writeFrom = buf.data();
        }
        issuePiece(outer_id, piece);
        return;
    }

    OuterRequest &outer = outer_.at(outer_id);
    outer.latest = std::max(outer.latest, resp.completedAt);
    if (--outer.remainingPieces == 0) {
        const OuterRequest done = outer_.take(outer_id);
        if (auto *t = trace::current()) {
            t->complete(trace::catCtrl, name_,
                        done.isWrite ? "outer.write" : "outer.read",
                        done.enqueuedAt, done.latest);
        }
        if (callback_)
            callback_(MemResponse{outer_id, done.latest});
    }
}

void
PramSubsystem::recordWearLevelWrites(std::uint64_t stripes)
{
    for (std::uint64_t i = 0; i < stripes; ++i) {
        if (!wearLevel_->recordWrite())
            continue;
        ++stats_.wearLevelMoves;
        if (auto *t = trace::current()) {
            t->instant(trace::catCtrl, name_, "wearLevel.gapMove",
                       eventq_.curTick());
        }
        // Copy the physical stripe behind the gap into the gap:
        // functional move plus a timed internal write of one stripe.
        // Either line may have been retired to a spare by the
        // reliability layer, so resolve through the remap chain.
        std::uint64_t from = resolveLine(wearLevel_->movedFrom()) *
                             config_.stripeBytes;
        std::uint64_t to =
            resolveLine(wearLevel_->movedTo()) * config_.stripeBytes;
        if (config_.functional) {
            std::vector<std::uint8_t> buf(config_.stripeBytes);
            auto [fch, faddr] = route(from);
            channels_[fch]->functionalRead(faddr, buf.data(),
                                           buf.size());
            auto [tch, taddr] = route(to);
            channels_[tch]->functionalWrite(taddr, buf.data(),
                                            buf.size());
        }
        auto [tch, taddr] = route(to);
        MemRequest internal;
        internal.kind = ReqKind::write;
        internal.addr = taddr;
        internal.size = config_.stripeBytes;
        channels_[tch]->enqueue(internal); // completion ignored
        // The copy is a real PRAM write: account its wear (the gap
        // line absorbs one stripe) without feeding the gap-move
        // period — a move must never trigger another move.
        ++stats_.gapMoveWrites;
        stats_.gapMoveBytes += config_.stripeBytes;
        if (auto *t = trace::current()) {
            t->counter(trace::catCtrl, name_, "gapMoveWrites",
                       eventq_.curTick(),
                       double(stats_.gapMoveWrites));
        }
    }
}

std::uint64_t
PramSubsystem::maxLineWear() const
{
    std::uint64_t wear = 0;
    for (const auto &ch : channels_) {
        for (std::uint32_t m = 0; m < ch->numModules(); ++m)
            wear = std::max(wear, ch->module(m).maxWordWear());
    }
    return wear;
}

void
PramSubsystem::hintFutureWrite(std::uint64_t addr, std::uint64_t size)
{
    fatal_if(addr + size > capacity(),
             "%s: hint beyond subsystem capacity", name_.c_str());
    forEachPiece(addr, size,
                 [&](std::uint64_t piece_addr, std::uint64_t len) {
        auto [ch, chan_addr] = route(remap(piece_addr));
        channels_[ch]->hintFutureWrite(chan_addr, len);
        return true;
    });
}

bool
PramSubsystem::idle() const
{
    return outer_.empty();
}

void
PramSubsystem::functionalWrite(std::uint64_t addr, const void *src,
                               std::uint64_t len)
{
    const auto *s = static_cast<const std::uint8_t *>(src);
    forEachPiece(addr, len,
                 [&](std::uint64_t piece_addr, std::uint64_t n) {
        auto [ch, chan_addr] = route(remap(piece_addr));
        channels_[ch]->functionalWrite(chan_addr, s, n);
        s += n;
        return true;
    });
}

void
PramSubsystem::functionalRead(std::uint64_t addr, void *dst,
                              std::uint64_t len) const
{
    auto *d = static_cast<std::uint8_t *>(dst);
    forEachPiece(addr, len,
                 [&](std::uint64_t piece_addr, std::uint64_t n) {
        auto [ch, chan_addr] = route(remap(piece_addr));
        channels_[ch]->functionalRead(chan_addr, d, n);
        d += n;
        return true;
    });
}

} // namespace ctrl
} // namespace dramless
