/**
 * @file
 * FPGA-based PRAM channel controller (Sections III-B, V).
 *
 * One controller drives one LPDDR2-NVM channel of up to 16 PRAM
 * modules sharing a CA bus and a 16-bit DQ bus (Figure 14). It
 * contains the paper's translator (expanding memory requests into
 * overlay-window register sequences), the command generator (three-
 * phase addressing with phase skipping on RAB/RDB hits), and the two
 * proposed schedulers: multi-resource aware interleaving and
 * selective erasing.
 *
 * Address map: 32-byte words are interleaved across the channel's
 * modules (word w lives in module w mod M), matching the server's
 * "512 bytes per channel, 32 bytes per bank" request shape.
 */

#ifndef DRAMLESS_CTRL_CHANNEL_CONTROLLER_HH
#define DRAMLESS_CTRL_CHANNEL_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/phy.hh"
#include "ctrl/request.hh"
#include "ctrl/scheduler.hh"
#include "pram/pram_module.hh"
#include "reliability/fault_model.hh"
#include "sim/clocked.hh"
#include "sim/completion_queue.hh"
#include "sim/id_ring.hh"
#include "sim/paged_array.hh"
#include "sim/stats.hh"

namespace dramless
{
namespace ctrl
{

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::uint64_t readWords = 0;
    std::uint64_t writeWords = 0;
    std::uint64_t preActivesSkipped = 0;
    std::uint64_t activatesSkipped = 0;
    std::uint64_t zeroFillPrograms = 0;
    std::uint64_t zeroFillSkipped = 0;
    /** Cross-module gang sub-ops serviced (burst batching). */
    std::uint64_t gangSubOps = 0;
    /** Words carried by gang sub-ops. */
    std::uint64_t gangWords = 0;
    /** Program-and-verify re-pulses after a failed verify. */
    std::uint64_t verifyRetries = 0;
    /** Demand writes that exhausted every verify retry. */
    std::uint64_t verifyFailedWrites = 0;
    /** Zero-fill programs dropped on a failed verify (never retried). */
    std::uint64_t zeroFillVerifyDrops = 0;
    stats::Average readLatencyNs{"readLatencyNs",
                                 "request read latency"};
    stats::Average writeLatencyNs{"writeLatencyNs",
                                  "request write latency (to durable)"};
};

/**
 * Hardware-automated controller for one PRAM channel.
 *
 * Requests complete asynchronously: reads when the last data beat
 * leaves the DQ pins, writes when the cell program finishes. The
 * completion callback runs from a scheduled event at the completion
 * tick.
 */
class ChannelController : public Clocked
{
  public:
    /**
     * @param eq event queue
     * @param num_modules PRAM modules on this channel (Table II: 16;
     *        at most 32)
     * @param geom module geometry
     * @param timing module timing
     * @param config scheduler policy preset
     * @param name diagnostic name
     * @param functional keep functional backing stores
     */
    ChannelController(EventQueue &eq, std::uint32_t num_modules,
                      const pram::PramGeometry &geom,
                      const pram::PramTiming &timing,
                      const SchedulerConfig &config, std::string name,
                      bool functional = true);

    /** Register the completion callback. */
    void setCallback(CompletionCallback cb) { callback_ = std::move(cb); }

    /**
     * Enable fault injection: attaches a FaultModel to every module
     * (salted per module) and arms the program-and-verify retry path.
     * Call before any traffic; a disabled config detaches everything.
     */
    void configureReliability(const reliability::ReliabilityConfig &cfg,
                              std::uint64_t salt);

    /** @return usable capacity in bytes (overlay windows excluded). */
    std::uint64_t capacity() const;

    /** @return true when the request would currently be admitted. */
    bool canAccept(const MemRequest &req) const;

    /**
     * Admit a request. @p req.addr and @p req.size must be multiples
     * of the 32-byte access unit and within capacity.
     * @return the request id reported back on completion.
     */
    std::uint64_t enqueue(const MemRequest &req);

    /**
     * Selective-erasing hint: the byte range [addr, addr+size) will be
     * overwritten soon. The controller pre-RESETs (all-zero programs)
     * the covered words when the affected modules are otherwise idle.
     * The range must lie within capacity().
     */
    void hintFutureWrite(std::uint64_t addr, std::uint64_t size);

    /** @return true when no demand work is queued or in flight. */
    bool idle() const;

    /** @return number of incomplete demand requests. */
    std::size_t pendingRequests() const { return requests_.size(); }

    /** @return demand sub-ops queued across every module. */
    std::size_t queuedSubOps() const;

    /** Functional (untimed) write across the channel address space. */
    void functionalWrite(std::uint64_t addr, const void *src,
                         std::uint64_t len);
    /** Functional (untimed) read across the channel address space. */
    void functionalRead(std::uint64_t addr, void *dst,
                        std::uint64_t len) const;

    /** @return module @p i (for inspection in tests/benches). */
    pram::PramModule &module(std::uint32_t i) { return *modules_.at(i); }
    const pram::PramModule &module(std::uint32_t i) const
    {
        return *modules_.at(i);
    }
    /** @return number of modules on the channel. */
    std::uint32_t numModules() const
    {
        return std::uint32_t(modules_.size());
    }

    /** @return the channel PHY (bus occupancy/energy counters). */
    const PramPhy &phy() const { return phy_; }

    /** @return controller statistics. */
    const ControllerStats &ctrlStats() const { return stats_; }

    /** @return the active scheduler configuration. */
    const SchedulerConfig &config() const { return config_; }

    const std::string &name() const { return name_; }

    /**
     * Validate the lockstep set: it is non-empty, every member's
     * scheduling state equals its representative's, and every gang's
     * pending verify re-pulse covers all of the set or none of it.
     * O(modules + queued gangs); used by tests, never on the hot path.
     * @return true when every invariant holds.
     */
    bool selfCheck() const;

  private:
    /** Widest sub-op: the verify mask holds one bit per member. */
    static constexpr std::uint32_t maxModules = 32;
    /** Largest access unit a payload slice holds. */
    static constexpr std::uint32_t maxUnitBytes = 32;
    /** A full-width payload: one slice per member. */
    using PayloadBlock =
        std::array<std::uint8_t, maxModules * maxUnitBytes>;
    /** Payload of every timing-only write: a non-zero pattern, so it
     *  is never misclassified as a RESET-mimicking zero program. */
    static const PayloadBlock timingPayload_;
    /** Payload of every zero-fill. */
    static const PayloadBlock zeroPayload_;

    /** Micro-operation: one three-phase access to one module row. */
    struct MicroOp : pram::DecomposedAddress
    {
        std::uint32_t len = 0;
        /** Register value written by an overlay-window write. */
        std::uint32_t value = 0;
        bool isWrite = false;
        /** Row resolves inside the overlay window. */
        bool overlayRow = false;
        /** Write of the execute register: launches the program. */
        bool isExecute = false;
        /** Program-buffer payload write: each member writes its own
         *  slice of the sub-op's payload instead of @c value. */
        bool isPayload = false;
    };

    /** Overlay-window program sequence of a write, in issue order
     *  (indices into owSeq_). */
    enum OwStep : std::uint32_t
    {
        owCode,
        owAddress,
        owSize,
        owPayload,
        owExecute,
        owSteps,
    };

    /** Addressing phase of the in-progress micro-op. */
    enum class Phase
    {
        preActive,
        activate,
        readWrite,
    };

    /**
     * One 32-byte word access on each of the member modules
     * [module, module + span), all at the same module word. Phases
     * broadcast to every member in lockstep. A full channel-width
     * aligned group under interleaving is one gang spanning every
     * module; everything else (Bare-metal and selective-erasing-only
     * words, unaligned heads and tails) has span 1. A read issues
     * wordOp; a write issues the channel's overlay-window sequence
     * (owSeq_) from opIdx on.
     */
    struct SubOp
    {
        std::uint64_t seq = 0;
        std::uint64_t reqId = 0;
        /** First member module. */
        std::uint32_t module = 0;
        /** Member count. */
        std::uint32_t span = 1;
        bool isWrite = false;
        bool isZeroFill = false;
        bool started = false;
        /** No member holds an older queued write to the word. Latched:
         *  writes enqueued later carry larger seqs, so once clear the
         *  sub-op stays clear. */
        bool orderClear = false;
        /** Word index local to each member module. */
        std::uint64_t moduleWord = 0;
        /** Next overlay-window step of a write. */
        std::uint32_t opIdx = 0;
        Phase phase = Phase::preActive;
        /** Earliest tick the current phase may issue. */
        Tick phaseReadyAt = 0;
        /** Destination for functional read data; member i reads into
         *  readInto + i * 32. */
        void *readInto = nullptr;
        /** Program-and-verify re-pulse rounds consumed so far (stats
         *  count per failing member). */
        std::uint32_t retries = 0;
        /** Members whose program has not yet verified (bit i =
         *  member i; verify re-pulses replay only these). */
        std::uint32_t pending = 0;
        /** Per-member RAB claims while a phase is in flight. */
        std::array<std::uint8_t, maxModules> rab{};
        /** The word's own access: a read's only micro-op; for a write,
         *  its partition is the program target. */
        MicroOp wordOp;
        /** Per-member write data, member i at i * unit: a shared
         *  constant block for timing-only writes and zero-fills, else
         *  ownPayload. Null for reads. */
        const std::uint8_t *payload = nullptr;
        /** A functional write's copy of its span x unit bytes. */
        std::unique_ptr<std::uint8_t[]> ownPayload;
    };

    using SubOpQueue = std::deque<std::unique_ptr<SubOp>>;
    /** Hinted [first, last) module-word ranges, oldest first. */
    using HintQueue =
        std::deque<std::pair<std::uint64_t, std::uint64_t>>;

    /** Demand request bookkeeping. */
    struct RequestState
    {
        std::uint32_t remainingSubOps = 0;
        bool isWrite = false;
        Tick enqueuedAt = 0;
        Tick latestCompletion = 0;
        /** A word of this request exhausted its verify retries. */
        bool failed = false;
        /** Channel-local byte address of the first failed word. */
        std::uint64_t failedAddr = 0;
    };

    /** A queued demand write: the read hazard on its word. */
    struct PendingWrite
    {
        std::uint64_t word = 0;
        std::uint64_t seq = 0;
    };

    /** Per-module scheduler state (move-only: owns sub-ops). */
    struct ModuleState
    {
        ModuleState() = default;
        ModuleState(ModuleState &&) = default;
        ModuleState &operator=(ModuleState &&) = default;
        ModuleState(const ModuleState &) = delete;
        ModuleState &operator=(const ModuleState &) = delete;

        SubOpQueue demand;
        /** Materialized zero-fill sub-ops (bounded by the module's
         *  program slots). */
        SubOpQueue zeroFills;
        /** Hinted future-write word ranges. */
        HintQueue hints;
        /** Words touched by demand traffic (kept only under selective
         *  erasing); zero-filling them could destroy live data, so they
         *  are never erased. */
        WordBitmap doNotZeroFill;
        /** Queued demand writes, unordered. Admission bounds the list
         *  by the module's queue, so a linear scan answers. */
        std::vector<PendingWrite> pendingWrites;
        /** Sub-op owning the overlay-window register sequence. */
        const SubOp *owSeqOwner = nullptr;
        /** Demand write sub-ops currently queued (zero-fills yield
         *  to them but may run alongside reads). */
        std::uint32_t queuedDemandWrites = 0;
        /** Last value written to the OW code register (skip rewrites). */
        std::uint32_t lastCode = 0;
        /** RAB claims: tick each RAB is released by its user. */
        std::vector<Tick> rabBusyUntil;
        std::vector<Tick> rabLastUse;
        /** Started-but-unfinished sub-ops (row-buffer bound). */
        std::uint32_t inFlight = 0;
    };

    /** Outcome of a single scheduling attempt. */
    struct Feasibility
    {
        /** Earliest tick the next action could issue (maxTick when
         *  blocked on another sub-op's progress). */
        Tick earliest = maxTick;
        /** Phase the action performs (later than the sub-op's own
         *  phase when row-buffer hits skip phases). */
        Phase effectivePhase = Phase::preActive;
    };

    /** Split (channel word) -> (module, module word). */
    std::uint32_t moduleOfWord(std::uint64_t word) const
    {
        return std::uint32_t(word % modules_.size());
    }
    std::uint64_t moduleWordOf(std::uint64_t word) const
    {
        return word / modules_.size();
    }

    /** @return true when gangs may form (the gang timing model needs
     *  the interleaving overlap). */
    bool
    gangEnabled() const
    {
        return config_.interleaving && modules_.size() > 1;
    }

    /** Translator: create a sub-op of module word @p mword on modules
     *  [@p module, @p module + @p span); the caller points a write at
     *  its payload. */
    std::unique_ptr<SubOp> makeSubOp(std::uint32_t module,
                                     std::uint32_t span,
                                     std::uint64_t mword, bool is_write);

    /** @return the micro-op @p sub issues next. */
    const MicroOp &
    nextOp(const SubOp &sub) const
    {
        return sub.isWrite ? owSeq_[sub.opIdx] : sub.wordOp;
    }

    /** @return module @p m's first free RAB holding @p op's upper row
     *  (-1: none). When @p inflight is given, it receives the earliest
     *  release of a busy RAB already sensing @p op's row. */
    int freeHit(std::uint32_t m, const MicroOp &op, Tick now,
                Tick *inflight = nullptr) const;

    /** Claim RAB @p b of module @p m for an in-flight phase. */
    void claimRab(std::uint32_t m, std::uint32_t b, Tick now);

    /** @return the members of @p sub whose state a check must read:
     *  every member of a partial sub-op; of a full-width one, the
     *  lockstep set's representative and the diverged modules. */
    std::uint32_t visitMask(const SubOp &sub) const;

    /** @return true when modules @p a and @p b hold the same
     *  scheduling state, controller and device side. */
    bool sameSchedulingState(std::uint32_t a, std::uint32_t b) const;

    /** Add to the lockstep set every diverged module whose state now
     *  equals the representative's, unless the representative holds a
     *  RAB claim. */
    void rejoinLockstep();

    /** Evaluate when @p sub's next action could issue (every member
     *  must be able to act together). */
    Feasibility evaluate(const SubOp &sub) const;

    /** Issue @p sub's next action now. Completion removes the sub-op
     *  from its queue. */
    void issue(SubOp &sub, const Feasibility &f);

    /** Evaluate @p sub and issue it when it can act now; otherwise
     *  fold its next action time into @p next_wake.
     *  @return true when it issued. */
    bool step(SubOp &sub, Tick &next_wake);

    /** @return true when a member of @p sub has no row buffer left
     *  for another started sub-op. */
    bool rowBuffersFull(const SubOp &sub) const;

    /** Move module @p m's started-sub-op count by @p delta. */
    void addInFlight(std::uint32_t m, int delta);

    /** @return true when a member of @p sub has an older queued write
     *  to its word (read-after-write hazard for reads, strict
     *  per-word write ordering for writes). Latches sub.orderClear. */
    bool orderBlocked(SubOp &sub) const;

    /** Run the scheduler until no action can issue at curTick. */
    void schedule();

    /** Split hint channel words [@p first, @p last] (inclusive) into
     *  the per-module hint queues. */
    void hintWords(std::uint64_t first, std::uint64_t last);

    /** Queue hinted module words [@p lo, @p hi) on module @p m. */
    void hintModule(std::uint32_t m, std::uint64_t lo, std::uint64_t hi);

    /** Materialize zero-fill sub-ops of span @p span starting at
     *  module @p module from @p hints into @p queue, up to the
     *  program-slot bound. Groups whose members no longer all need
     *  erasing fall back to per-module hints. */
    void materializeZeroFill(HintQueue &hints, SubOpQueue &queue,
                             std::uint32_t module, std::uint32_t span);

    /** Drop every not-yet-started zero-fill of @p mword from
     *  @p queue; members still worth erasing are re-hinted. */
    void cancelUnstartedZeroFill(SubOpQueue &queue, std::uint64_t mword);

    /** Record that sub-op @p sub finishes at @p when; @p failed masks
     *  the members whose program exhausted every verify retry. */
    void finishSubOp(const SubOp &sub, Tick when, std::uint32_t failed);

    /** Remove the finished @p sub from its queue, which frees it. */
    void retire(const SubOp &sub);

    /** Retire request @p req_id, due now, and report it. */
    void completeRequest(const std::uint64_t &req_id, Tick now);

    SchedulerConfig config_;
    std::string name_;
    pram::PramGeometry geom_;
    PramPhy phy_;
    std::vector<std::unique_ptr<pram::PramModule>> modules_;
    std::vector<ModuleState> moduleStates_;
    /** A write's overlay-window register sequence. Every module
     *  shares one geometry, so the translator decomposes it once; the
     *  address step's value is each sub-op's module word. */
    std::array<MicroOp, owSteps> owSeq_;
    /** Gang sub-ops (full channel-width bursts), in arrival order.
     *  Per-module ordering against the demand queues is enforced
     *  through pendingWrites / orderBlocked, as between the
     *  per-module queues themselves. */
    SubOpQueue gangs_;
    /** Modules whose row buffers all hold started sub-ops (bit m =
     *  module m): a gang's check reads one word, not every member. */
    std::uint32_t fullModules_ = 0;
    /** Lockstep set (bit m = module m): modules whose scheduling state
     *  (sameSchedulingState) equals that of the lowest, the
     *  representative. A full-width gang's check reads the
     *  representative for all of them. Never empty. */
    std::uint32_t lockstep_ = 0;
    /** Modules with queued demand sub-ops (bit m = module m). */
    std::uint32_t demandModules_ = 0;
    /** Modules that may have hint or zero-fill work: set when such
     *  work arrives, cleared when a scan finds none left. */
    std::uint32_t speculativeModules_ = 0;
    /** Module holding the channel-wide FIFO head (Bare-metal; M when
     *  no demand is queued), recomputed after an enqueue or retire. */
    std::uint32_t fifoModule_ = 0;
    bool fifoStale_ = true;
    /** Hinted module-word ranges awaiting ganged zero-fill: every
     *  member of such a group was hinted as a future write target. */
    HintQueue gangHints_;
    /** Materialized ganged zero-fill sub-ops (speculative; yield to
     *  demand traffic like the per-module zero-fills). */
    SubOpQueue gangZeroFills_;
    /** Incomplete demand requests, by id (ids come from
     *  nextReqId_++). */
    IdRing<RequestState> requests_;
    CompletionQueue<ChannelController, std::uint64_t,
                    &ChannelController::completeRequest>
        completions_;
    CompletionCallback callback_;
    std::uint64_t nextReqId_ = 1;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t usableWordsPerModule_ = 0;
    ControllerStats stats_;
    MemberEvent<ChannelController, &ChannelController::schedule>
        schedulerEvent_;
    bool inSchedule_ = false;
    /** Reliability knobs; faults_ engaged only when enabled. */
    reliability::ReliabilityConfig relCfg_;
    std::optional<reliability::FaultModel> faults_;
};

} // namespace ctrl
} // namespace dramless

#endif // DRAMLESS_CTRL_CHANNEL_CONTROLLER_HH
