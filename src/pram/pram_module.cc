#include "pram/pram_module.hh"

#include <algorithm>
#include <cstring>

#include "sim/trace.hh"

namespace dramless
{
namespace pram
{

BurstLength
burstForBytes(std::uint32_t len)
{
    panic_if(len == 0, "zero-length burst");
    if (len <= 8)
        return BurstLength::BL4;
    if (len <= 16)
        return BurstLength::BL8;
    panic_if(len > 32, "burst longer than one row buffer (%u B)", len);
    return BurstLength::BL16;
}

PramModule::PramModule(EventQueue &eq, const PramGeometry &geom,
                       const PramTiming &timing, std::string name,
                       bool functional)
    : Clocked(eq, timing.tCK),
      geom_(geom),
      timing_(timing),
      name_(std::move(name)),
      decomposer_(geom),
      rabs_(geom.numRowBuffers),
      rdbs_(geom.numRowBuffers),
      partitions_(geom.partitionsPerBank),
      programWord_(geom.rowBufferBytes)
{
    panic_if(!timing.valid(), "invalid PRAM timing for %s",
             name_.c_str());
    for (auto &rdb : rdbs_)
        rdb.data.assign(geom_.rowBufferBytes, 0);
    if (functional)
        store_ = std::make_unique<SparseMemory>(geom_.moduleBytes());
    // By default map the overlay window at the top of the module's
    // address space; the controller's initializer may move it.
    window_.setBase(geom_.moduleBytes() - window_.windowBytes());
}

Tick
PramModule::preActive(std::uint32_t ba, std::uint64_t upper_row,
                      std::uint32_t partition)
{
    panic_if(ba >= rabs_.size(), "RAB index %u out of range", ba);
    panic_if(partition >= geom_.partitionsPerBank,
             "partition %u out of range", partition);
    Rab &rab = rabs_[ba];
    rab.valid = true;
    rab.upperRow = upper_row;
    rab.partition = partition;
    rab.readyAt = curTick() + timing_.preActiveTime();
    ++stats_.numPreActive;
    if (auto *t = trace::current())
        t->complete(trace::catPram, name_, "preActive", curTick(),
                    rab.readyAt);
    return rab.readyAt;
}

Tick
PramModule::activate(std::uint32_t ba, std::uint64_t lower_row)
{
    panic_if(ba >= rabs_.size(), "RAB index %u out of range", ba);
    const Rab &rab = rabs_[ba];
    panic_if(!rab.valid, "%s: activate with invalid RAB %u",
             name_.c_str(), ba);
    panic_if(rab.readyAt > curTick(),
             "%s: activate before pre-active completes", name_.c_str());

    std::uint64_t row = decomposer_.mergeRow(rab.upperRow, lower_row);
    std::uint64_t row_addr = decomposer_.compose(rab.partition, row, 0);

    Rdb &rdb = rdbs_[ba];
    rdb.valid = true;
    rdb.row = row;
    rdb.partition = rab.partition;
    rdb.readyAt = curTick() + timing_.tRCD;
    ++stats_.numActivate;
    if (auto *t = trace::current())
        t->complete(trace::catPram, name_, "activate", curTick(),
                    rdb.readyAt);

    // During tRCD the module checks whether the composed row falls in
    // the overlay window; register rows never touch a partition.
    if (window_.contains(row_addr)) {
        rdb.overlay = true;
        ++stats_.numOverlayActivate;
        return rdb.readyAt;
    }

    rdb.overlay = false;
    Partition &part = partitions_[rab.partition];
    panic_if(part.busyUntil > curTick(),
             "%s: activate on busy partition %u (busy until %llu)",
             name_.c_str(), rab.partition,
             (unsigned long long)part.busyUntil);
    occupyPartition(rab.partition, curTick(), rdb.readyAt);
    if (store_)
        store_->read(row_addr, rdb.data.data(), geom_.rowBufferBytes);
    return rdb.readyAt;
}

BurstTiming
PramModule::readBurst(std::uint32_t ba, std::uint32_t column,
                      std::uint32_t len, void *out)
{
    panic_if(ba >= rdbs_.size(), "RDB index %u out of range", ba);
    const Rdb &rdb = rdbs_[ba];
    panic_if(!rdb.valid, "%s: read from invalid RDB %u",
             name_.c_str(), ba);
    panic_if(rdb.readyAt > curTick(),
             "%s: read before RDB %u is ready", name_.c_str(), ba);
    panic_if(column + len > geom_.rowBufferBytes,
             "%s: read burst beyond row buffer", name_.c_str());

    BurstTiming t;
    t.firstData = curTick() + timing_.readPreamble();
    t.lastData = t.firstData + timing_.burstTime(burstForBytes(len));
    ++stats_.numReadBursts;
    stats_.bytesRead += len;
    if (auto *tr = trace::current())
        tr->complete(trace::catPram, name_, "readBurst", t.firstData,
                     t.lastData);

    if (out != nullptr) {
        if (rdb.overlay) {
            std::uint64_t row_addr =
                decomposer_.compose(rdb.partition, rdb.row, 0);
            std::uint32_t off = std::uint32_t(
                row_addr + column - window_.base());
            if (off == ow::statusReg && len == 4) {
                std::uint32_t status =
                    curTick() >= programBusyUntil_ ? ow::statusReady
                                                   : ow::statusBusy;
                std::memcpy(out, &status, 4);
            } else if (off >= ow::programBufferBase) {
                window_.readProgramBuffer(
                    off - ow::programBufferBase, out, len);
            } else if (len == 4) {
                std::uint32_t v = window_.readReg(off);
                std::memcpy(out, &v, 4);
            } else {
                panic("%s: unsupported overlay read at offset 0x%x",
                      name_.c_str(), off);
            }
        } else {
            std::memcpy(out, rdb.data.data() + column, len);
        }
    }
    return t;
}

BurstTiming
PramModule::writeBurst(std::uint32_t ba, std::uint32_t column,
                       std::uint32_t len, const void *in)
{
    panic_if(ba >= rdbs_.size(), "RDB index %u out of range", ba);
    const Rdb &rdb = rdbs_[ba];
    panic_if(!rdb.valid, "%s: write through invalid RDB %u",
             name_.c_str(), ba);
    panic_if(rdb.readyAt > curTick(),
             "%s: write before RDB %u resolves", name_.c_str(), ba);
    panic_if(!rdb.overlay,
             "%s: direct array write is illegal on this device; all "
             "persistent writes go through the overlay window",
             name_.c_str());
    panic_if(column + len > geom_.rowBufferBytes,
             "%s: write burst beyond row buffer", name_.c_str());

    BurstTiming t;
    t.firstData = curTick() + timing_.writePreamble();
    t.lastData = t.firstData + timing_.burstTime(burstForBytes(len));
    Tick effect = t.lastData + timing_.tWRA;
    ++stats_.numWriteBursts;
    if (auto *tr = trace::current())
        tr->complete(trace::catPram, name_, "writeBurst", t.firstData,
                     t.lastData);

    std::uint64_t row_addr =
        decomposer_.compose(rdb.partition, rdb.row, 0);
    std::uint32_t off =
        std::uint32_t(row_addr + column - window_.base());

    if (off >= ow::programBufferBase) {
        window_.writeProgramBuffer(off - ow::programBufferBase, in,
                                   len);
    } else {
        panic_if(len != 4,
                 "%s: overlay register writes must be 4 bytes",
                 name_.c_str());
        std::uint32_t v;
        std::memcpy(&v, in, 4);
        window_.writeReg(off, v);
        if (off == ow::executeReg)
            execute(effect);
    }
    return t;
}

void
PramModule::execute(Tick start)
{
    panic_if(window_.code() != ow::cmdBufferProgram,
             "%s: execute with unknown command code 0x%x", name_.c_str(),
             window_.code());
    // Prune completed programs, then claim a slot.
    std::erase_if(programEnds_,
                  [start](Tick t) { return t <= start; });
    panic_if(programEnds_.size() >= geom_.programSlots,
             "%s: execute with no free program slot", name_.c_str());
    lastProgramVerifyFailed_ = false;

    std::uint64_t first_word = window_.address();
    std::uint32_t bytes = window_.multiPurpose();
    panic_if(bytes == 0, "%s: zero-byte program", name_.c_str());
    panic_if(bytes > window_.programBufferBytes(),
             "%s: program larger than the program buffer",
             name_.c_str());
    std::uint32_t words =
        (bytes + geom_.rowBufferBytes - 1) / geom_.rowBufferBytes;

    // The single write driver programs the buffered words serially.
    Tick when = start;
    std::vector<std::uint8_t> &word = programWord_;
    for (std::uint32_t i = 0; i < words; ++i) {
        std::uint64_t word_idx = first_word + i;
        std::uint64_t addr = word_idx * geom_.rowBufferBytes;
        panic_if(addr >= geom_.moduleBytes(),
                 "%s: program beyond module capacity", name_.c_str());
        DecomposedAddress d = decomposer_.decompose(addr);
        panic_if(partitions_[d.partition].busyUntil > when,
                 "%s: program launched on busy partition %u",
                 name_.c_str(), d.partition);

        // Any RDB holding this row now goes stale: the array content
        // changes beneath it, so the sensed copy must be dropped or a
        // later phase-skipped read would return old data.
        for (Rdb &rdb : rdbs_) {
            if (rdb.valid && !rdb.overlay && rdb.row == d.row &&
                rdb.partition == d.partition) {
                rdb.valid = false;
            }
        }
        window_.readProgramBuffer(i * geom_.rowBufferBytes,
                                  word.data(), geom_.rowBufferBytes);
        bool all_zero = std::all_of(word.begin(), word.end(),
                                    [](std::uint8_t b) {
                                        return b == 0;
                                    });
        ProgramKind kind = classifyProgram(word_idx, all_zero);
        Tick latency = programLatency(kind);
        if (faults_) {
            // Wear counts every program attempt (retries included):
            // each pulse train stresses the cells, and a fresh wear
            // value gives each re-pulse an independent fault draw.
            std::uint64_t wear = ++wordWear_[word_idx];
            maxWordWear_ = std::max(maxWordWear_, wear);
            latency = faults_->programLatency(faultSalt_, word_idx,
                                              wear, latency);
            if (faults_->programFails(faultSalt_, word_idx, wear)) {
                lastProgramVerifyFailed_ = true;
                ++stats_.numVerifyFailures;
                if (auto *t = trace::current()) {
                    t->instant(trace::catPram, name_,
                               "program.verifyFail", when);
                }
            }
        }
        if (auto *t = trace::current()) {
            t->complete(trace::catPram, name_,
                        kind == ProgramKind::pristineProgram
                            ? "program.pristine"
                        : kind == ProgramKind::overwrite
                            ? "program.overwrite"
                            : "program.resetOnly",
                        when, when + latency);
        }
        occupyPartition(d.partition, when, when + latency);
        partitions_[d.partition].programCount++;
        if (kind == ProgramKind::resetOnly)
            pristine_.set(word_idx);
        else
            pristine_.reset(word_idx);
        if (store_)
            store_->write(addr, word.data(), geom_.rowBufferBytes);

        ++stats_.numPrograms;
        stats_.bytesWritten += geom_.rowBufferBytes;
        switch (kind) {
          case ProgramKind::pristineProgram:
            ++stats_.numPristinePrograms;
            break;
          case ProgramKind::overwrite:
            ++stats_.numOverwrites;
            break;
          case ProgramKind::resetOnly:
            ++stats_.numResetOnlyPrograms;
            break;
        }
        when += latency;
    }
    programEnds_.push_back(when);
    lastProgramEnd_ = when;
    programBusyUntil_ = std::max(programBusyUntil_, when);
    if (auto *t = trace::current()) {
        t->counter(trace::catPram, name_, "programSlotsBusy", start,
                   double(programEnds_.size()));
    }
}

void
PramModule::occupyPartition(std::uint32_t partition, Tick from,
                            Tick until)
{
    Partition &part = partitions_[partition];
    part.busyUntil = std::max(part.busyUntil, until);
    stats_.partitionBusyTicks += until - from;
}

Tick
PramModule::programSlotFreeAt() const
{
    Tick now = curTick();
    std::uint32_t active = 0;
    Tick earliest = maxTick;
    for (Tick end : programEnds_) {
        if (end > now) {
            ++active;
            earliest = std::min(earliest, end);
        }
    }
    return active < geom_.programSlots ? now : earliest;
}

std::uint64_t
PramModule::partitionProgramCount(std::uint32_t partition) const
{
    return partitions_.at(partition).programCount;
}

bool
PramModule::wordIsPristine(std::uint64_t word_index) const
{
    panic_if(word_index >= geom_.moduleBytes() / geom_.rowBufferBytes,
             "%s: word %llu beyond module capacity", name_.c_str(),
             (unsigned long long)word_index);
    return pristine_.test(word_index);
}

bool
PramModule::sameSchedulingState(const PramModule &other) const
{
    const Tick now = curTick();
    auto ahead = [now](Tick t) { return std::max(t, now); };
    if (lastProgramVerifyFailed_ != other.lastProgramVerifyFailed_ ||
        ahead(lastProgramEnd_) != ahead(other.lastProgramEnd_) ||
        window_.code() != other.window_.code() ||
        window_.address() != other.window_.address() ||
        window_.multiPurpose() != other.window_.multiPurpose()) {
        return false;
    }
    for (std::size_t b = 0; b < rabs_.size(); ++b) {
        const Rab &x = rabs_[b], &y = other.rabs_[b];
        const Rdb &r = rdbs_[b], &q = other.rdbs_[b];
        if (x.valid != y.valid || x.upperRow != y.upperRow ||
            x.partition != y.partition ||
            ahead(x.readyAt) != ahead(y.readyAt) || r.valid != q.valid) {
            return false;
        }
        if (r.valid && (r.row != q.row || r.partition != q.partition ||
                        r.overlay != q.overlay ||
                        ahead(r.readyAt) != ahead(q.readyAt))) {
            return false;
        }
    }
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        if (ahead(partitions_[p].busyUntil) !=
            ahead(other.partitions_[p].busyUntil)) {
            return false;
        }
    }
    // Program slots: the same ends still ahead, in any order.
    for (const std::vector<Tick> *ends : {&programEnds_, &other.programEnds_}) {
        for (Tick t : *ends) {
            if (t > now &&
                std::count(programEnds_.begin(), programEnds_.end(), t) !=
                    std::count(other.programEnds_.begin(),
                               other.programEnds_.end(), t)) {
                return false;
            }
        }
    }
    return true;
}

ProgramKind
PramModule::classifyProgram(std::uint64_t word_index,
                            bool all_zero) const
{
    if (all_zero)
        return ProgramKind::resetOnly;
    return wordIsPristine(word_index) ? ProgramKind::pristineProgram
                                      : ProgramKind::overwrite;
}

Tick
PramModule::programLatency(ProgramKind kind) const
{
    switch (kind) {
      case ProgramKind::pristineProgram:
        return timing_.cellProgram;
      case ProgramKind::overwrite:
        return timing_.cellOverwrite;
      case ProgramKind::resetOnly:
        return timing_.cellResetOnly;
    }
    panic("unreachable program kind");
}

void
PramModule::functionalWrite(std::uint64_t addr, const void *src,
                            std::uint64_t len)
{
    panic_if(!store_, "%s has no functional store", name_.c_str());
    store_->write(addr, src, len);
    // Data now exists in the array: mark the covered words programmed.
    std::uint64_t first = addr / geom_.rowBufferBytes;
    std::uint64_t last = (addr + len - 1) / geom_.rowBufferBytes;
    for (std::uint64_t w = first; w <= last; ++w)
        pristine_.reset(w);
}

void
PramModule::functionalRead(std::uint64_t addr, void *dst,
                           std::uint64_t len) const
{
    panic_if(!store_, "%s has no functional store", name_.c_str());
    store_->read(addr, dst, len);
}

} // namespace pram
} // namespace dramless
