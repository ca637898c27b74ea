#include "ctrl/channel_controller.hh"

#include <algorithm>
#include <cstring>

#include "sim/trace.hh"

namespace dramless
{
namespace ctrl
{

namespace
{

/** Demand sub-ops scanned per module per pass when interleaving. */
constexpr std::uint32_t schedLookahead = 8;

/** Demand words queued per module before admission refuses more. */
constexpr std::size_t maxQueuePerModule = 64;

/** @return a mask of the low @p n bits. */
constexpr std::uint32_t
lowBits(std::uint32_t n)
{
    return n >= 32 ? ~std::uint32_t(0) : (std::uint32_t(1) << n) - 1;
}

/** @return true when RDB @p b of @p mod holds @p row of
 *  @p partition. */
bool
rdbHolds(const pram::PramModule &mod, std::uint32_t b, std::uint64_t row,
         std::uint32_t partition)
{
    return mod.rdbValid(b) && mod.rdbRow(b) == row &&
           mod.rdbPartition(b) == partition;
}

} // anonymous namespace

const ChannelController::PayloadBlock ChannelController::timingPayload_ =
    [] {
        PayloadBlock b;
        b.fill(0xA5);
        return b;
    }();

const ChannelController::PayloadBlock ChannelController::zeroPayload_{};

ChannelController::ChannelController(EventQueue &eq,
                                     std::uint32_t num_modules,
                                     const pram::PramGeometry &geom,
                                     const pram::PramTiming &timing,
                                     const SchedulerConfig &config,
                                     std::string name, bool functional)
    : Clocked(eq, timing.tCK),
      config_(config),
      name_(std::move(name)),
      geom_(geom),
      phy_(eq, timing.tCK),
      requests_(name_ + ".requests"),
      completions_(eq, this, name_ + ".completion"),
      schedulerEvent_(this, name_ + ".sched")
{
    fatal_if(num_modules == 0, "channel needs at least one module");
    fatal_if(num_modules > maxModules,
             "%s: %u modules exceed the %u a channel controller drives",
             name_.c_str(), num_modules, maxModules);
    fatal_if(geom.rowBufferBytes > maxUnitBytes ||
                 geom.numRowBuffers > 256,
             "%s: the controller supports up to %u-byte row buffers "
             "and 256 of them",
             name_.c_str(), maxUnitBytes);
    modules_.reserve(num_modules);
    moduleStates_.resize(num_modules);
    for (std::uint32_t i = 0; i < num_modules; ++i) {
        modules_.push_back(std::make_unique<pram::PramModule>(
            eq, geom, timing, name_ + csprintf(".mod%u", i),
            functional));
        moduleStates_[i].rabBusyUntil.assign(geom.numRowBuffers, 0);
        moduleStates_[i].rabLastUse.assign(geom.numRowBuffers, 0);
        moduleStates_[i].lastCode = pram::ow::cmdNone;
    }
    // Fresh modules and their controller state are identical.
    lockstep_ = lowBits(num_modules);
    const pram::PramModule &mod = *modules_.front();
    usableWordsPerModule_ = mod.overlayWindow().base() / geom.rowBufferBytes;

    // Translator: a write is an overlay-window sequence of operation
    // code, word address, burst size (multi-purpose register), payload
    // (each member its own slice) and execute, which launches it.
    auto ow_write = [&](OwStep k, std::uint32_t offset,
                        std::uint32_t value, std::uint32_t len) {
        MicroOp &op = owSeq_[k];
        static_cast<pram::DecomposedAddress &>(op) =
            mod.decomposer().decompose(mod.overlayWindow().base() + offset);
        op.len = len;
        op.value = value;
        op.isWrite = op.overlayRow = true;
        op.isPayload = k == owPayload;
        op.isExecute = k == owExecute;
    };
    const std::uint32_t unit = geom.rowBufferBytes;
    ow_write(owCode, pram::ow::codeReg, pram::ow::cmdBufferProgram, 4);
    ow_write(owAddress, pram::ow::addressReg, 0, 4);
    ow_write(owSize, pram::ow::multiPurposeReg, unit, 4);
    ow_write(owPayload, pram::ow::programBufferBase, 0, unit);
    ow_write(owExecute, pram::ow::executeReg, 1, 4);
}

std::uint64_t
ChannelController::capacity() const
{
    return usableWordsPerModule_ * modules_.size() *
           geom_.rowBufferBytes;
}

bool
ChannelController::canAccept(const MemRequest &req) const
{
    // Every gang occupies one slot on each of its member modules.
    // Words past the first M revisit the same modules.
    const std::uint32_t M = numModules();
    const std::uint64_t words =
        std::min<std::uint64_t>(req.size / geom_.rowBufferBytes, M);
    std::uint32_t m = moduleOfWord(req.addr / geom_.rowBufferBytes);
    for (std::uint64_t i = 0; i < words; ++i) {
        if (moduleStates_[m].demand.size() + gangs_.size() >=
            maxQueuePerModule) {
            return false;
        }
        m = m + 1 < M ? m + 1 : 0;
    }
    return true;
}

std::uint64_t
ChannelController::enqueue(const MemRequest &req)
{
    fatal_if(req.size == 0 || req.size % geom_.rowBufferBytes != 0,
             "%s: request size %u is not a multiple of the %u-byte "
             "access unit",
             name_.c_str(), req.size, geom_.rowBufferBytes);
    fatal_if(req.addr % geom_.rowBufferBytes != 0,
             "%s: request address 0x%llx misaligned", name_.c_str(),
             (unsigned long long)req.addr);
    fatal_if(req.addr + req.size > capacity(),
             "%s: request beyond capacity", name_.c_str());

    std::uint64_t id = nextReqId_++;
    const std::uint32_t unit = geom_.rowBufferBytes;
    std::uint32_t words = req.size / unit;
    RequestState &rstate = requests_.insert(id);
    rstate.isWrite = (req.kind == ReqKind::write);
    rstate.enqueuedAt = curTick();

    if (rstate.isWrite) {
        ++stats_.writeRequests;
        stats_.writeWords += words;
    } else {
        ++stats_.readRequests;
        stats_.readWords += words;
    }

    const std::uint32_t M = numModules();
    std::uint64_t first_word = req.addr / unit;
    for (std::uint32_t i = 0; i < words;) {
        std::uint64_t word = first_word + i;
        std::uint64_t mword = moduleWordOf(word);
        // A full channel-width aligned group (every module at the
        // same module word — the natural shape of a 512-byte channel
        // piece) becomes one gang spanning every module. The gang
        // timing model overlaps member array operations, which is
        // exactly the multi-resource overlap the interleaving knob
        // grants — without it (Figure 13 bare-metal / selective-
        // erasing bars), words must run one at a time.
        std::uint32_t span =
            gangEnabled() && word % M == 0 && words - i >= M ? M : 1;
        auto sub = makeSubOp(moduleOfWord(word), span, mword,
                             rstate.isWrite);
        sub->reqId = id;
        if (sub->isWrite && req.writeFrom != nullptr) {
            const std::size_t bytes = std::size_t(span) * unit;
            sub->ownPayload = std::make_unique_for_overwrite<
                std::uint8_t[]>(bytes);
            std::memcpy(sub->ownPayload.get(),
                        static_cast<const std::uint8_t *>(req.writeFrom) +
                            std::uint64_t(i) * unit,
                        bytes);
            sub->payload = sub->ownPayload.get();
        } else if (sub->isWrite) {
            sub->payload = timingPayload_.data();
        } else if (req.readInto != nullptr) {
            sub->readInto = static_cast<std::uint8_t *>(req.readInto) +
                            std::uint64_t(i) * unit;
        }
        for (std::uint32_t m = sub->module; m < sub->module + span; ++m) {
            ModuleState &ms = moduleStates_[m];
            if (sub->isWrite) {
                ms.pendingWrites.push_back({mword, sub->seq});
                ++ms.queuedDemandWrites;
            }
            // The access replaces or observes the word's contents: a
            // later hint-driven zero-fill would destroy live data,
            // and a queued one is now pointless (and a hazard).
            if (config_.selectiveErasing) {
                ms.doNotZeroFill.set(mword);
                cancelUnstartedZeroFill(ms.zeroFills, mword);
            }
        }
        cancelUnstartedZeroFill(gangZeroFills_, mword);
        if (span == 1)
            demandModules_ |= std::uint32_t(1) << sub->module;
        SubOpQueue &queue =
            span > 1 ? gangs_ : moduleStates_[sub->module].demand;
        queue.push_back(std::move(sub));
        ++rstate.remainingSubOps;
        i += span;
    }

    fifoStale_ = true;
    if (auto *t = trace::current()) {
        t->instant(trace::catCtrl, name_,
                   rstate.isWrite ? "enqueue.write" : "enqueue.read",
                   curTick());
        t->counter(trace::catCtrl, name_, "demandQueueDepth",
                   curTick(), double(queuedSubOps()));
    }
    eventQueue().reschedule(&schedulerEvent_, curTick());
    return id;
}

std::size_t
ChannelController::queuedSubOps() const
{
    std::size_t depth = 0;
    for (const ModuleState &ms : moduleStates_)
        depth += ms.demand.size();
    return depth + gangs_.size();
}

void
ChannelController::hintWords(std::uint64_t first, std::uint64_t last)
{
    // Split the channel-word range into per-module module-word ranges.
    for (std::uint32_t m = 0; m < modules_.size(); ++m) {
        // Module m holds words w with w % M == m; the covered
        // module-word range is contiguous.
        std::uint64_t lo = first / modules_.size() +
                           (first % modules_.size() > m ? 1 : 0);
        std::uint64_t hi = last / modules_.size() +
                           (last % modules_.size() >= m ? 1 : 0);
        if (hi > lo)
            hintModule(m, lo, hi);
    }
}

void
ChannelController::hintModule(std::uint32_t m, std::uint64_t lo,
                              std::uint64_t hi)
{
    moduleStates_[m].hints.emplace_back(lo, hi);
    speculativeModules_ |= std::uint32_t(1) << m;
}

void
ChannelController::hintFutureWrite(std::uint64_t addr,
                                   std::uint64_t size)
{
    fatal_if(addr + size > capacity(), "%s: hint beyond capacity",
             name_.c_str());
    if (!config_.selectiveErasing || size == 0)
        return;
    std::uint64_t first = addr / geom_.rowBufferBytes;
    std::uint64_t last = (addr + size - 1) / geom_.rowBufferBytes;
    const std::uint64_t M = modules_.size();
    if (gangEnabled()) {
        // Full channel-width aligned groups erase as one gang
        // sub-op each; only the unaligned head and tail fall back to
        // the per-module queues.
        std::uint64_t g_lo = (first + M - 1) / M;
        std::uint64_t g_hi = (last + 1) / M;
        if (g_hi > g_lo) {
            gangHints_.emplace_back(g_lo, g_hi);
            if (g_lo * M > first)
                hintWords(first, g_lo * M - 1);
            if (g_hi * M <= last)
                hintWords(g_hi * M, last);
        } else {
            hintWords(first, last);
        }
    } else {
        hintWords(first, last);
    }
    eventQueue().reschedule(&schedulerEvent_, curTick());
}

bool
ChannelController::idle() const
{
    return requests_.empty();
}

void
ChannelController::functionalWrite(std::uint64_t addr, const void *src,
                                   std::uint64_t len)
{
    const auto *s = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::uint64_t word = addr / geom_.rowBufferBytes;
        std::uint32_t off = std::uint32_t(addr % geom_.rowBufferBytes);
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, geom_.rowBufferBytes - off);
        modules_[moduleOfWord(word)]->functionalWrite(
            moduleWordOf(word) * geom_.rowBufferBytes + off, s, chunk);
        s += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
ChannelController::functionalRead(std::uint64_t addr, void *dst,
                                  std::uint64_t len) const
{
    auto *d = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t word = addr / geom_.rowBufferBytes;
        std::uint32_t off = std::uint32_t(addr % geom_.rowBufferBytes);
        std::uint64_t chunk =
            std::min<std::uint64_t>(len, geom_.rowBufferBytes - off);
        modules_[moduleOfWord(word)]->functionalRead(
            moduleWordOf(word) * geom_.rowBufferBytes + off, d, chunk);
        d += chunk;
        addr += chunk;
        len -= chunk;
    }
}

std::unique_ptr<ChannelController::SubOp>
ChannelController::makeSubOp(std::uint32_t module, std::uint32_t span,
                             std::uint64_t mword, bool is_write)
{
    auto sub = std::make_unique<SubOp>();
    sub->seq = nextSeq_++;
    sub->module = module;
    sub->span = span;
    sub->isWrite = is_write;
    sub->moduleWord = mword;
    // Every member decomposes the same module word identically.
    const std::uint32_t unit = geom_.rowBufferBytes;
    static_cast<pram::DecomposedAddress &>(sub->wordOp) =
        modules_[module]->decomposer().decompose(mword * unit);
    sub->wordOp.len = unit;
    // A write skips the code step when every member's register holds
    // it (a redundant rewrite on some members is harmless).
    sub->opIdx = owAddress;
    for (std::uint32_t m = module; is_write && m < module + span; ++m) {
        if (moduleStates_[m].lastCode != pram::ow::cmdBufferProgram) {
            sub->opIdx = owCode;
            break;
        }
    }
    sub->pending = lowBits(span);
    if (span > 1) {
        ++stats_.gangSubOps;
        stats_.gangWords += span;
    }
    return sub;
}

int
ChannelController::freeHit(std::uint32_t m, const MicroOp &op, Tick now,
                           Tick *inflight) const
{
    const pram::PramModule &mod = *modules_[m];
    const ModuleState &ms = moduleStates_[m];
    for (std::uint32_t b = 0; b < geom_.numRowBuffers; ++b) {
        if (!mod.rabValid(b) || mod.rabUpperRow(b) != op.upperRow ||
            mod.rabPartition(b) != op.partition) {
            continue;
        }
        if (ms.rabBusyUntil[b] <= now)
            return int(b);
        // The RDB holds the row, and an earlier data burst releases
        // the RAB at a known tick; waiting for it can beat redoing the
        // full three-phase access.
        if (inflight != nullptr && rdbHolds(mod, b, op.row, op.partition))
            *inflight = std::min(*inflight, ms.rabBusyUntil[b]);
    }
    return -1;
}

void
ChannelController::claimRab(std::uint32_t m, std::uint32_t b, Tick now)
{
    ModuleState &ms = moduleStates_[m];
    ms.rabBusyUntil[b] = maxTick;
    ms.rabLastUse[b] = now;
}

std::uint32_t
ChannelController::visitMask(const SubOp &sub) const
{
    // A sub-op spans one module or, as a gang, the whole channel.
    return sub.span == 1
               ? std::uint32_t(1) << sub.module
               : lowBits(sub.span) & ~(lockstep_ & (lockstep_ - 1));
}

bool
ChannelController::sameSchedulingState(std::uint32_t a,
                                       std::uint32_t b) const
{
    const ModuleState &x = moduleStates_[a];
    const ModuleState &y = moduleStates_[b];
    if (x.owSeqOwner != y.owSeqOwner || x.inFlight != y.inFlight ||
        x.lastCode != y.lastCode || x.rabLastUse != y.rabLastUse) {
        return false;
    }
    // A release already past reads as free either way.
    const Tick now = curTick();
    for (std::size_t r = 0; r < x.rabBusyUntil.size(); ++r) {
        if (std::max(x.rabBusyUntil[r], now) !=
            std::max(y.rabBusyUntil[r], now)) {
            return false;
        }
    }
    return modules_[a]->sameSchedulingState(*modules_[b]);
}

void
ChannelController::rejoinLockstep()
{
    const std::uint32_t rep = std::uint32_t(__builtin_ctz(lockstep_));
    // A started sub-op drives the RAB each member claimed for it,
    // which the compared state does not name: a module equal to the
    // representative while it holds a claim might hold it for another
    // sub-op.
    const std::vector<Tick> &busy = moduleStates_[rep].rabBusyUntil;
    if (std::find(busy.begin(), busy.end(), maxTick) != busy.end())
        return;
    for (std::uint32_t bits = lowBits(numModules()) & ~lockstep_;
         bits != 0; bits &= bits - 1) {
        const std::uint32_t m = std::uint32_t(__builtin_ctz(bits));
        if (sameSchedulingState(m, rep))
            lockstep_ |= std::uint32_t(1) << m;
    }
}

bool
ChannelController::selfCheck() const
{
    if (lockstep_ == 0 || (lockstep_ & ~lowBits(numModules())) != 0)
        return false;
    const std::uint32_t rep = std::uint32_t(__builtin_ctz(lockstep_));
    for (std::uint32_t bits = lockstep_ & (lockstep_ - 1); bits != 0;
         bits &= bits - 1) {
        if (!sameSchedulingState(std::uint32_t(__builtin_ctz(bits)), rep))
            return false;
    }
    // evaluate() reads the representative's pending bit for the set.
    for (const SubOpQueue *queue : {&gangs_, &gangZeroFills_}) {
        for (const auto &sub : *queue) {
            const std::uint32_t p = (sub->pending << sub->module) & lockstep_;
            if (p != 0 && p != lockstep_)
                return false;
        }
    }
    return true;
}

bool
ChannelController::rowBuffersFull(const SubOp &sub) const
{
    return (fullModules_ >> sub.module & lowBits(sub.span)) != 0;
}

void
ChannelController::addInFlight(std::uint32_t m, int delta)
{
    ModuleState &ms = moduleStates_[m];
    ms.inFlight += delta;
    if (ms.inFlight >= geom_.numRowBuffers)
        fullModules_ |= std::uint32_t(1) << m;
    else
        fullModules_ &= ~(std::uint32_t(1) << m);
}

bool
ChannelController::orderBlocked(SubOp &sub) const
{
    if (sub.orderClear)
        return false;
    for (std::uint32_t m = sub.module; m < sub.module + sub.span; ++m) {
        for (const PendingWrite &pw : moduleStates_[m].pendingWrites) {
            if (pw.word == sub.moduleWord && pw.seq < sub.seq)
                return true;
        }
    }
    sub.orderClear = true;
    return false;
}

ChannelController::Feasibility
ChannelController::evaluate(const SubOp &sub) const
{
    const Tick now = curTick();
    const MicroOp &op = nextOp(sub);
    // Lockstep members would repeat their representative's answer to
    // every min, max and or below, so only it is read for them.
    const std::uint32_t visit = visitMask(sub);
    Feasibility f;

    // Writes serialize on every member's overlay-window registers.
    if (op.isWrite) {
        for (std::uint32_t bits = visit; bits != 0; bits &= bits - 1) {
            const SubOp *owner =
                moduleStates_[__builtin_ctz(bits)].owSeqOwner;
            if (owner != nullptr && owner != &sub)
                return f; // blocked on another sub-op's progress
        }
    }

    Phase phase = sub.phase;
    if (phase == Phase::preActive) {
        // Look for row-buffer hits enabling phase skips. Phases
        // broadcast to every member in lockstep, so the sub-op skips
        // only as far as every member can. Each member's first free
        // RAB holding the upper row sets its level; issue() claims
        // that RAB. Members share their access history, so uniform
        // hits are the common case.
        const pram::PramTiming &tm = modules_[sub.module]->timing();
        const Tick wait_limit = now + tm.tRCD + tm.preActiveTime();
        phase = Phase::readWrite;
        bool any_hit = false;
        // Latest of the members' earliest in-flight senses of the row.
        Tick inflight_at = 0;
        for (std::uint32_t bits = visit; bits != 0; bits &= bits - 1) {
            const std::uint32_t m = std::uint32_t(__builtin_ctz(bits));
            Tick inflight = maxTick;
            int b = freeHit(m, op, now, &inflight);
            inflight_at = std::max(inflight_at, inflight);
            if (b < 0) {
                phase = Phase::preActive;
            } else {
                any_hit = true;
                if (!rdbHolds(*modules_[m], std::uint32_t(b), op.row,
                              op.partition)) {
                    phase = std::min(phase, Phase::activate);
                }
            }
            // Settled: a member misses and waiting is ruled out.
            if (phase == Phase::preActive &&
                (any_hit || inflight_at >= wait_limit)) {
                break;
            }
        }
        if (!any_hit && inflight_at < wait_limit) {
            // Cheaper to wait for every member's sense to complete.
            f.earliest = std::max(inflight_at, sub.phaseReadyAt);
            return f;
        }
    }

    // phaseReadyAt gates a verify retry's status poll before its
    // pre-active; for every other pre-active it is <= now here.
    Tick t = std::max({now, phy_.caFreeAt(), sub.phaseReadyAt});
    switch (phase) {
      case Phase::preActive:
        // Every member needs a free RAB.
        for (std::uint32_t bits = visit; bits != 0; bits &= bits - 1) {
            const std::vector<Tick> &busy =
                moduleStates_[__builtin_ctz(bits)].rabBusyUntil;
            Tick rab_free = *std::min_element(busy.begin(), busy.end());
            if (rab_free == maxTick)
                return f; // all claimed; unblocked by other sub-ops
            t = std::max(t, rab_free);
        }
        break;
      case Phase::activate:
        if (!op.overlayRow) {
            for (std::uint32_t bits = visit; bits != 0; bits &= bits - 1) {
                t = std::max(t, modules_[__builtin_ctz(bits)]
                                    ->partitionBusyUntil(op.partition));
            }
        }
        break;
      case Phase::readWrite: {
        const pram::PramTiming &tm = modules_[sub.module]->timing();
        Tick preamble =
            op.isWrite ? tm.writePreamble() : tm.readPreamble();
        Tick dq_free = phy_.dqFreeAt();
        t = std::max(t, dq_free > preamble ? dq_free - preamble : 0);
        if (op.isExecute) {
            // A re-pulse reaches every lockstep member or none
            // (selfCheck), so the representative's bit stands for all.
            for (std::uint32_t bits = visit & (sub.pending << sub.module);
                 bits != 0; bits &= bits - 1) {
                const pram::PramModule &mod = *modules_[__builtin_ctz(bits)];
                t = std::max(
                    {t, mod.programSlotFreeAt(),
                     mod.partitionBusyUntil(sub.wordOp.partition)});
            }
        }
        break;
      }
    }
    f.earliest = t;
    f.effectivePhase = phase;
    return f;
}

void
ChannelController::issue(SubOp &sub, const Feasibility &f)
{
    const Tick now = curTick();
    const MicroOp &op = nextOp(sub);
    const std::uint32_t span = sub.span;
    const std::uint32_t unit = geom_.rowBufferBytes;
    // Members whose state this action changes unlike the rest's: a
    // re-pulse's execute reaches only the members that failed. An
    // action on part of the lockstep set splits it, and the untouched
    // part stays.
    const std::uint32_t touched =
        (f.effectivePhase == Phase::readWrite && op.isExecute
             ? sub.pending
             : lowBits(span))
        << sub.module;
    if ((lockstep_ & touched) != 0 && (lockstep_ & ~touched) != 0)
        lockstep_ &= ~touched;

    if (!sub.started) {
        sub.started = true;
        for (std::uint32_t i = 0; i < span; ++i)
            addInFlight(sub.module + i, 1);
    }
    if (op.isWrite) {
        for (std::uint32_t i = 0; i < span; ++i) {
            ModuleState &ms = moduleStates_[sub.module + i];
            if (ms.owSeqOwner == nullptr)
                ms.owSeqOwner = &sub;
        }
    }

    // CA commands go out per member, back to back on the shared bus,
    // so command counts (and CA energy) scale with word count.
    auto send_commands = [&](std::uint32_t n) {
        Tick t = now;
        for (std::uint32_t k = 0; k < n; ++k)
            t = phy_.sendCommand(t);
    };
    // Lockstep members would choose the RAB their representative, the
    // lowest member and so the first to choose, chooses: they copy it.
    // Every member still claims and drives its own RAB.
    const std::uint32_t copies =
        (lowBits(span) << sub.module) & ~visitMask(sub);
    const std::uint32_t rep = std::uint32_t(__builtin_ctz(lockstep_));
    // After a phase skip each member claims the RAB evaluate() found:
    // nothing changes between the two inside one scheduling pass.
    auto claim_hits = [&]() {
        for (std::uint32_t i = 0; i < span; ++i) {
            const std::uint32_t m = sub.module + i;
            int b = copies >> m & 1 ? sub.rab[rep - sub.module]
                                    : freeHit(m, op, now);
            panic_if(b < 0, "phase skip without a RAB hit");
            sub.rab[i] = std::uint8_t(b);
            claimRab(m, std::uint32_t(b), now);
        }
    };

    switch (f.effectivePhase) {
      case Phase::preActive: {
        Tick ready = 0;
        for (std::uint32_t i = 0; i < span; ++i) {
            const std::uint32_t m = sub.module + i;
            int ba = -1;
            if (copies >> m & 1) {
                ba = sub.rab[rep - sub.module];
            } else {
                // Pick the least recently used free RAB.
                const ModuleState &ms = moduleStates_[m];
                Tick oldest = maxTick;
                for (std::uint32_t b = 0; b < geom_.numRowBuffers; ++b) {
                    if (ms.rabBusyUntil[b] > now)
                        continue;
                    if (ms.rabLastUse[b] < oldest) {
                        oldest = ms.rabLastUse[b];
                        ba = int(b);
                    }
                }
            }
            panic_if(ba < 0, "issue without a free RAB");
            sub.rab[i] = std::uint8_t(ba);
            claimRab(m, std::uint32_t(ba), now);
            ready = std::max(ready,
                             modules_[m]->preActive(std::uint32_t(ba),
                                                    op.upperRow,
                                                    op.partition));
        }
        send_commands(span);
        sub.phaseReadyAt = ready;
        if (auto *t = trace::current()) {
            t->complete(trace::catCtrl, name_, "phase.preActive", now,
                        sub.phaseReadyAt);
        }
        sub.phase = Phase::activate;
        return;
      }
      case Phase::activate: {
        if (sub.phase == Phase::preActive) {
            // Every member skipped the pre-active on a RAB hit.
            stats_.preActivesSkipped += span;
            if (auto *t = trace::current()) {
                t->counter(trace::catCtrl, name_, "rabHits", now,
                           double(stats_.preActivesSkipped));
            }
            claim_hits();
        }
        Tick ready = 0;
        for (std::uint32_t i = 0; i < span; ++i) {
            ready = std::max(ready, modules_[sub.module + i]->activate(
                                        sub.rab[i], op.lowerRow));
        }
        send_commands(span);
        sub.phaseReadyAt = ready;
        if (auto *t = trace::current()) {
            t->complete(trace::catCtrl, name_, "phase.activate", now,
                        sub.phaseReadyAt);
        }
        sub.phase = Phase::readWrite;
        return;
      }
      case Phase::readWrite:
        break;
    }

    if (sub.phase == Phase::preActive) {
        // Every member skipped both phases on a full RDB hit.
        stats_.preActivesSkipped += span;
        stats_.activatesSkipped += span;
        if (auto *t = trace::current()) {
            t->counter(trace::catCtrl, name_, "rdbHits", now,
                       double(stats_.activatesSkipped));
        }
        claim_hits();
        for (std::uint32_t i = 0; i < span; ++i) {
            const pram::PramModule &mod = *modules_[sub.module + i];
            panic_if(mod.rdbReadyAt(sub.rab[i]) > now,
                     "RDB hit on unready RDB");
        }
    }

    // Data transfer: every member performs its own word's burst (so
    // per-word fault injection, wear and program-and-verify stay
    // intact) while the shared DQ bus serializes the beats — the
    // sub-op's occupancy is one burst window per member.
    const bool was_execute = op.isExecute;
    const std::uint32_t value = sub.isWrite && sub.opIdx == owAddress
                                    ? std::uint32_t(sub.moduleWord)
                                    : op.value;
    std::uint32_t bursts = 0;
    Tick first_data = maxTick;
    Tick window = 0;
    for (std::uint32_t i = 0; i < span; ++i) {
        if (was_execute && !(sub.pending & (std::uint32_t(1) << i)))
            continue; // verified members skip the re-pulse
        pram::PramModule &mod = *modules_[sub.module + i];
        pram::BurstTiming bt;
        if (op.isWrite) {
            const void *src =
                op.isPayload ? sub.payload + std::size_t(i) * unit
                             : static_cast<const void *>(&value);
            bt = mod.writeBurst(sub.rab[i], op.column, op.len, src);
        } else {
            void *dst = sub.readInto == nullptr
                            ? nullptr
                            : static_cast<std::uint8_t *>(sub.readInto) +
                                  std::size_t(i) * unit;
            bt = mod.readBurst(sub.rab[i], op.column, op.len, dst);
        }
        ++bursts;
        first_data = std::min(first_data, bt.firstData);
        window = std::max(window, bt.lastData - bt.firstData);
    }
    panic_if(bursts == 0, "data phase with no members");
    if (was_execute) {
        // A program's latency and verify result follow its member's
        // own data, pristine state and fault draw: lockstep members
        // whose program ended unlike the representative's leave.
        const std::uint32_t rep = std::uint32_t(__builtin_ctz(lockstep_));
        const pram::PramModule &r = *modules_[rep];
        for (std::uint32_t bits =
                 lockstep_ & touched & ~(std::uint32_t(1) << rep);
             bits != 0; bits &= bits - 1) {
            const std::uint32_t m = std::uint32_t(__builtin_ctz(bits));
            if (modules_[m]->lastProgramEnd() != r.lastProgramEnd() ||
                modules_[m]->lastProgramVerifyFailed() !=
                    r.lastProgramVerifyFailed()) {
                lockstep_ &= ~(std::uint32_t(1) << m);
            }
        }
    }
    send_commands(bursts);
    const Tick data_end = first_data + Tick(bursts) * window;
    phy_.reserveDq(first_data, data_end);
    if (auto *t = trace::current()) {
        t->complete(trace::catCtrl, name_,
                    op.isWrite ? "phase.write" : "phase.read", now,
                    data_end);
    }
    for (std::uint32_t i = 0; i < span; ++i) {
        ModuleState &ms = moduleStates_[sub.module + i];
        ms.rabBusyUntil[sub.rab[i]] = data_end;
        ms.rabLastUse[sub.rab[i]] = now;
    }

    ++sub.opIdx;
    sub.phase = Phase::preActive;
    sub.phaseReadyAt = now;

    if (sub.isWrite && sub.opIdx < owSteps)
        return; // sequence continues

    // Sub-op fully issued: check device verify status (writes),
    // release resources, and record completion.
    if (!sub.isWrite) {
        for (std::uint32_t i = 0; i < span; ++i)
            addInFlight(sub.module + i, -1);
        finishSubOp(sub, data_end, 0);
        retire(sub);
        return; // sub is retired now
    }
    panic_if(!was_execute, "write sequence ended without execute");
    // Per-member program-and-verify: each module rolled its own fault
    // decision; only failing members replay the execute.
    Tick durable = 0;
    std::uint32_t failed = 0;
    for (std::uint32_t i = 0; i < span; ++i) {
        if (!(sub.pending & (std::uint32_t(1) << i)))
            continue;
        const pram::PramModule &mod = *modules_[sub.module + i];
        durable = std::max(durable, mod.lastProgramEnd());
        if (faults_ && mod.lastProgramVerifyFailed())
            failed |= std::uint32_t(1) << i;
    }
    const std::uint32_t n_failed =
        std::uint32_t(__builtin_popcount(failed));
    // Pre-RESET programs drop on verify failure instead of retrying:
    // the word simply stays non-pristine.
    if (failed != 0 && !sub.isZeroFill &&
        sub.retries < relCfg_.maxProgramRetries) {
        // Program-and-verify re-pulse: the overlay-window registers
        // and program buffer still hold the operation, so only the
        // execute write is replayed after a status poll. The sub-op
        // keeps the OW sequence lock and stays in flight.
        ++sub.retries;
        stats_.verifyRetries += n_failed;
        sub.pending = failed;
        --sub.opIdx;
        sub.phaseReadyAt = durable + relCfg_.verifyCost;
        if (auto *t = trace::current()) {
            t->instant(trace::catCtrl, name_, "verify.retry", durable);
            t->counter(trace::catCtrl, name_, "verifyRetries", durable,
                       double(stats_.verifyRetries));
        }
        return;
    }
    if (failed != 0 && !sub.isZeroFill) {
        // Retries exhausted: the line is worn out. Demand writes
        // report the failure upward (the subsystem remaps the line to
        // a spare).
        stats_.verifyFailedWrites += n_failed;
        if (auto *t = trace::current()) {
            t->instant(trace::catCtrl, name_, "verify.exhausted",
                       durable);
        }
    }
    for (std::uint32_t i = 0; i < span; ++i) {
        ModuleState &ms = moduleStates_[sub.module + i];
        addInFlight(sub.module + i, -1);
        if (ms.owSeqOwner == &sub)
            ms.owSeqOwner = nullptr;
        ms.lastCode = pram::ow::cmdBufferProgram;
        if (sub.isZeroFill)
            continue;
        panic_if(ms.queuedDemandWrites == 0,
                 "demand write counter underflow");
        --ms.queuedDemandWrites;
        std::vector<PendingWrite> &pw = ms.pendingWrites;
        auto it = std::find_if(pw.begin(), pw.end(), [&](const auto &w) {
            return w.seq == sub.seq;
        });
        panic_if(it == pw.end(), "demand write missing from its hazards");
        *it = pw.back();
        pw.pop_back();
    }
    if (sub.isZeroFill) {
        // No request to complete.
        stats_.zeroFillPrograms += span;
        stats_.zeroFillVerifyDrops += n_failed;
    } else {
        finishSubOp(sub, durable, failed);
    }
    retire(sub); // sub is retired now
}

bool
ChannelController::step(SubOp &sub, Tick &next_wake)
{
    Feasibility f = evaluate(sub);
    if (f.earliest > curTick()) {
        next_wake = std::min(next_wake, f.earliest);
        return false;
    }
    const bool full_width = sub.span == numModules();
    issue(sub, f); // may retire sub
    // A full-width action may bring diverged modules back in line.
    if (full_width && lockstep_ != lowBits(numModules()))
        rejoinLockstep();
    return true;
}

void
ChannelController::retire(const SubOp &sub)
{
    const std::uint32_t m = sub.module;
    ModuleState &ms = moduleStates_[m];
    SubOpQueue &queue =
        sub.isZeroFill ? (sub.span > 1 ? gangZeroFills_ : ms.zeroFills)
                       : (sub.span > 1 ? gangs_ : ms.demand);
    auto it = std::find_if(queue.begin(), queue.end(),
                           [&](const auto &p) { return p.get() == &sub; });
    panic_if(it == queue.end(), "retiring an unqueued sub-op");
    queue.erase(it); // frees sub
    if (&queue == &ms.demand) {
        fifoStale_ = true;
        if (queue.empty())
            demandModules_ &= ~(std::uint32_t(1) << m);
    }
}

void
ChannelController::finishSubOp(const SubOp &sub, Tick when,
                               std::uint32_t failed)
{
    RequestState &rstate = requests_.at(sub.reqId);
    panic_if(rstate.remainingSubOps == 0, "request over-completed");
    rstate.latestCompletion = std::max(rstate.latestCompletion, when);
    if (failed != 0 && !rstate.failed) {
        rstate.failed = true;
        rstate.failedAddr = (sub.moduleWord * modules_.size() +
                             sub.module + __builtin_ctz(failed)) *
                            geom_.rowBufferBytes;
    }
    if (--rstate.remainingSubOps == 0)
        completions_.push(rstate.latestCompletion, sub.reqId);
}

void
ChannelController::configureReliability(
    const reliability::ReliabilityConfig &cfg, std::uint64_t salt)
{
    relCfg_ = cfg;
    faults_.reset();
    if (!cfg.enabled)
        return;
    faults_.emplace(cfg);
    for (std::uint32_t m = 0; m < modules_.size(); ++m)
        modules_[m]->attachFaults(&*faults_, reliability::mix(salt, m));
}

void
ChannelController::completeRequest(const std::uint64_t &req_id,
                                   Tick now)
{
    const RequestState rstate = requests_.take(req_id);
    double lat_ns = toNs(now - rstate.enqueuedAt);
    if (rstate.isWrite)
        stats_.writeLatencyNs.sample(lat_ns);
    else
        stats_.readLatencyNs.sample(lat_ns);
    if (auto *t = trace::current()) {
        t->complete(trace::catCtrl, name_,
                    rstate.isWrite ? "req.write" : "req.read",
                    rstate.enqueuedAt, now);
        t->counter(trace::catCtrl, name_, "demandQueueDepth", now,
                   double(queuedSubOps()));
    }
    if (callback_) {
        callback_(MemResponse{req_id, now, rstate.failed,
                              rstate.failedAddr});
    }
}

void
ChannelController::cancelUnstartedZeroFill(SubOpQueue &queue,
                                           std::uint64_t mword)
{
    for (auto it = queue.begin(); it != queue.end();) {
        const SubOp &zf = **it;
        if (zf.started || zf.moduleWord != mword) {
            ++it;
            continue;
        }
        // Members not covered by the cancelling demand access may
        // still benefit; re-hint them for the per-module queues.
        for (std::uint32_t m = zf.module; m < zf.module + zf.span; ++m) {
            if (!moduleStates_[m].doNotZeroFill.test(mword))
                hintModule(m, mword, mword + 1);
        }
        ++stats_.zeroFillSkipped;
        it = queue.erase(it);
    }
}

void
ChannelController::materializeZeroFill(HintQueue &hints, SubOpQueue &queue,
                                       std::uint32_t module,
                                       std::uint32_t span)
{
    const std::uint32_t all = lowBits(span);
    // Each zero-fill occupies one program slot on every member.
    while (!hints.empty() && queue.size() < geom_.programSlots) {
        auto &range = hints.front();
        if (range.first >= range.second) {
            hints.pop_front();
            continue;
        }
        std::uint64_t w = range.first++;
        // Per-word decisions stay per word: each member checks its
        // own do-not-erase set and array state.
        std::uint32_t mask = 0;
        for (std::uint32_t i = 0; i < span; ++i) {
            const std::uint32_t m = module + i;
            if (moduleStates_[m].doNotZeroFill.test(w) ||
                modules_[m]->wordIsPristine(w)) {
                ++stats_.zeroFillSkipped;
            } else {
                mask |= std::uint32_t(1) << i;
            }
        }
        if (mask != all) {
            // Partial group: members still worth erasing go through
            // the per-module queues.
            for (std::uint32_t i = 0; i < span; ++i)
                if (mask & (std::uint32_t(1) << i))
                    hintModule(module + i, w, w + 1);
            continue;
        }
        auto sub = makeSubOp(module, span, w, true);
        sub->isZeroFill = true;
        sub->payload = zeroPayload_.data();
        queue.push_back(std::move(sub));
    }
}

void
ChannelController::schedule()
{
    if (inSchedule_)
        return;
    inSchedule_ = true;
    const Tick now = curTick();
    const std::uint32_t M = numModules();

    bool progress = true;
    Tick next_wake = maxTick;

    // Demand candidates: strict channel-wide FIFO without
    // interleaving (the caller scans only the head's module, and only
    // its front may issue), a bounded lookahead with it. A sub-op
    // starts only with a row buffer left on every member and no older
    // queued write to its word (strict per-word write ordering; reads
    // wait for older writes).
    const std::uint32_t lookahead = config_.interleaving ? schedLookahead : 1;
    auto scan_demand = [&](SubOpQueue &queue) {
        std::uint32_t scanned = 0;
        for (auto &subptr : queue) {
            SubOp &sub = *subptr;
            if (++scanned > lookahead)
                break;
            if (!sub.started &&
                (rowBuffersFull(sub) || orderBlocked(sub))) {
                continue;
            }
            if (step(sub, next_wake))
                return true; // sub may be retired
        }
        return false;
    };
    // Zero-fills are speculative: unstarted ones wait while @p yield
    // holds. An already started sequence must run to completion: it
    // owns the overlay-window registers demand writes need.
    auto scan_zero_fills = [&](SubOpQueue &queue, bool yield) {
        for (auto &zfptr : queue) {
            if (zfptr->started || !yield) {
                if (step(*zfptr, next_wake))
                    return true; // zf may be retired
            }
        }
        return false;
    };

    // Scan start for each pass. In interleaved mode an issue on
    // module m resumes the next pass at m: feasibility of earlier
    // modules depends only on their own (unchanged) state and the
    // shared CA/DQ bus free times, which issuing can only push later,
    // so nothing before m becomes newly issuable. A pass that starts
    // past module 0 and stalls is followed by one full pass so
    // next_wake accounts for every module. Non-interleaved
    // scheduling always rescans from 0: the channel-wide FIFO head
    // may move to any module after an issue.
    std::uint32_t start = 0;
    std::uint32_t scan_end = M;
    while (progress) {
        progress = false;
        // A prefix-only merge pass (scan_end != M) keeps the stalled
        // pass's next_wake: together they cover every module under
        // unchanged bus state, so the merged minimum is exact.
        if (scan_end == M)
            next_wake = maxTick;

        // The noop (Bare-metal) scheduler services the request queue
        // strictly in order: only the globally oldest incomplete
        // demand sub-op on the channel may issue. (Gangs need
        // interleaving, so they never take part.) The head changes
        // only when a demand sub-op is enqueued or retired.
        if (!config_.interleaving && fifoStale_) {
            std::uint64_t head = ~std::uint64_t(0);
            fifoModule_ = M;
            for (std::uint32_t bits = demandModules_; bits != 0;
                 bits &= bits - 1) {
                const std::uint32_t d = std::uint32_t(__builtin_ctz(bits));
                if (moduleStates_[d].demand.front()->seq < head) {
                    head = moduleStates_[d].demand.front()->seq;
                    fifoModule_ = d;
                }
            }
            fifoStale_ = false;
        }
        // Modules this pass may find work on: demand candidates plus
        // any speculative work.
        const std::uint32_t demand_scan =
            config_.interleaving ? demandModules_
            : fifoModule_ < M    ? std::uint32_t(1) << fifoModule_
                                 : 0;
        auto next_module = [&](std::uint32_t from) {
            std::uint32_t bits =
                (demand_scan | speculativeModules_) & ~lowBits(from);
            return bits != 0 ? std::uint32_t(__builtin_ctz(bits)) : M;
        };

        // Gangs scan ahead of the per-module queues: a gang issue
        // touches every module, so progress restarts the pass from
        // module 0.
        progress = scan_demand(gangs_);

        // Ganged zero-fills follow the per-module yield discipline —
        // speculative erases give way to demand writes — and also
        // wait for queued gangs and for a row buffer on every module.
        // Like demand gangs, progress restarts the pass.
        if (!progress && config_.selectiveErasing && gangEnabled() &&
            !(gangHints_.empty() && gangZeroFills_.empty())) {
            bool yield = !gangs_.empty();
            const bool rb_full = fullModules_ != 0;
            for (const ModuleState &ms : moduleStates_)
                yield = yield || ms.queuedDemandWrites != 0;
            if (!yield && !gangHints_.empty())
                materializeZeroFill(gangHints_, gangZeroFills_, 0, M);
            progress = scan_zero_fills(gangZeroFills_, yield || rb_full);
        }

        if (progress) {
            start = 0;
            scan_end = M;
            continue;
        }

        std::uint32_t m = next_module(start);
        for (; m < scan_end; m = next_module(m + 1)) {
            ModuleState &mstate = moduleStates_[m];
            if ((demand_scan >> m & 1) && scan_demand(mstate.demand)) {
                progress = true;
                break;
            }

            // Selective erasing: zero-fills yield to queued demand
            // writes (which they would race for the program slots)
            // but run alongside read traffic — the paper erases
            // "before completing the corresponding computation".
            if (config_.selectiveErasing) {
                bool yield = mstate.queuedDemandWrites != 0;
                if (!yield && !mstate.hints.empty()) {
                    materializeZeroFill(mstate.hints, mstate.zeroFills, m,
                                        1);
                }
                if (scan_zero_fills(mstate.zeroFills, yield)) {
                    progress = true;
                    break;
                }
            }
            if (mstate.hints.empty() && mstate.zeroFills.empty())
                speculativeModules_ &= ~(std::uint32_t(1) << m);
        }

        if (progress) {
            start = config_.interleaving ? m : 0;
            scan_end = M;
        } else if (start != 0) {
            // Stalled mid-array: sweep just the skipped prefix to
            // fold the remaining modules into next_wake.
            scan_end = start;
            start = 0;
            progress = true;
        }
    }

    if (next_wake != maxTick) {
        panic_if(next_wake <= now, "scheduler wake in the past");
        eventQueue().reschedule(&schedulerEvent_, next_wake);
    }
    inSchedule_ = false;
}

} // namespace ctrl
} // namespace dramless
