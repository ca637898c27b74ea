/**
 * @file
 * Deterministic event-driven simulation kernel.
 *
 * Events are ordered by (tick, priority, insertion sequence), so two runs
 * of the same configuration always interleave events identically.
 *
 * The queue is an intrusive indexed d-ary min-heap: every Event carries
 * its own heap slot, so deschedule() and reschedule() are true
 * O(log n) sift operations instead of lazy tombstones, nextTick() is
 * exact, and the only per-event storage is one pointer in the heap
 * array. The comparison key (tick, priority, seq) is a strict total
 * order (sequence numbers are unique), so the pop order is identical
 * to any other faithful implementation of the same key — including
 * the lazy-deletion binary heap this replaced.
 *
 * step() leaves the popped event's slot at the root, marked dead, and
 * the next schedule() overwrites it and sifts down once: a handler
 * that reschedules its own event or schedules one follow-up costs one
 * sift instead of two. Any other mutation first settles the dead root
 * by refilling it from the tail. Neither path touches a key or a
 * sequence number, so the pop order is unchanged (DESIGN.md §10).
 */

#ifndef DRAMLESS_SIM_EVENT_QUEUE_HH
#define DRAMLESS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace dramless
{

class EventQueue;

/**
 * Base class for schedulable events. An event may be scheduled on at most
 * one queue at a time; the owner is responsible for keeping the event
 * alive while it is scheduled.
 */
class Event
{
  public:
    /** Lower values are processed first among events at the same tick. */
    static constexpr int defaultPriority = 0;
    /** Priority for bookkeeping that must run before device activity. */
    static constexpr int highPriority = -10;
    /** Priority for stat sampling that must observe a settled tick. */
    static constexpr int lowPriority = 10;

    virtual ~Event();

    /** Callback invoked when the event's tick is reached. */
    virtual void process() = 0;

    /** @return a short diagnostic name. */
    virtual std::string name() const { return "event"; }

    /** @return true while the event sits on a queue. */
    bool scheduled() const { return _scheduled; }

    /** @return the tick the event is scheduled for. */
    Tick when() const { return _when; }

    /** @return the event's current same-tick priority. */
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _seq = 0;
    /** Slot in the owning queue's heap array (valid while scheduled). */
    std::size_t _heapIdx = 0;
    int _priority = defaultPriority;
    bool _scheduled = false;
    /** The queue the event is scheduled on (null while idle). */
    EventQueue *_queue = nullptr;
};

/**
 * An event that invokes a bound member function directly — no
 * std::function, no allocation, one devirtualizable call. This is the
 * event type for persistent device-model events (scheduler passes,
 * completion triggers, drain loops): the handler is fixed at compile
 * time, so steady-state traffic never touches the allocator.
 *
 * Usage: MemberEvent<ChannelController, &ChannelController::schedule>.
 */
template <typename T, void (T::*Fn)()>
class MemberEvent : public Event
{
  public:
    /**
     * @param obj receiver of the bound member call
     * @param name diagnostic name
     */
    MemberEvent(T *obj, std::string name)
        : obj_(obj), name_(std::move(name))
    {}

    void process() override { (obj_->*Fn)(); }
    std::string name() const override { return name_; }

  private:
    T *obj_;
    std::string name_;
};

/**
 * An event that invokes a bound callable; convenient for one-off hooks
 * and tests. Constructing one may heap-allocate inside std::function,
 * so steady-state per-request paths use MemberEvent (persistent
 * events) or EventPool (transients) instead; the construction counter
 * lets tests assert that hot paths stay away from this type.
 */
class EventFunctionWrapper : public Event
{
  public:
    /**
     * @param callback invoked at the scheduled tick
     * @param name diagnostic name
     */
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name = "anon")
        : callback_(std::move(callback)), name_(std::move(name))
    {
        numConstructed_.fetch_add(1, std::memory_order_relaxed);
    }

    void process() override { callback_(); }
    std::string name() const override { return name_; }

    /** Total wrappers ever constructed, process-wide. Steady-state
     *  assertions snapshot this before and after driving traffic. */
    static std::uint64_t
    constructed()
    {
        return numConstructed_.load(std::memory_order_relaxed);
    }

  private:
    static std::atomic<std::uint64_t> numConstructed_;

    std::function<void()> callback_;
    std::string name_;
};

/**
 * The event queue. Maintains current simulated time and processes events
 * in deterministic order.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated tick. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p ev at absolute tick @p when.
     * @pre the event is not already scheduled and when >= curTick().
     */
    void schedule(Event *ev, Tick when, int priority = 0);

    /**
     * Remove a scheduled event from the queue: the heap entry is
     * unlinked immediately (O(log n)), so the event may be destroyed
     * or rescheduled on another queue as soon as this returns.
     * @pre the event is scheduled, and scheduled on this queue.
     */
    void deschedule(Event *ev);

    /**
     * Move a scheduled (or idle) event to a new tick; scheduling an
     * idle event to the current tick is explicitly supported. The
     * when >= curTick() precondition is checked before any state
     * changes, so a precondition failure never half-updates the
     * event. A scheduled event is re-keyed in place (one sift, no
     * pop/push round trip).
     * @pre when >= curTick(), and if the event is scheduled it is
     *      scheduled on this queue.
     */
    void reschedule(Event *ev, Tick when, int priority = 0);

    /** @return true when no events remain pending. */
    bool empty() const { return numPending() == 0; }

    /**
     * @return number of pending events. Exact: descheduled events
     * leave the heap immediately, so this is heap occupancy less the
     * dead root.
     */
    std::size_t numPending() const { return heap_.size() - deadRoot_; }

    /** @return the tick of the earliest pending event, or maxTick. */
    Tick
    nextTick() const
    {
        if (!deadRoot_)
            return heap_.empty() ? maxTick : heap_.front().when;
        // The root's children head every live subtree.
        Tick t = maxTick;
        const std::size_t last = std::min(arity + 1, heap_.size());
        for (std::size_t c = 1; c < last; ++c)
            t = std::min(t, heap_[c].when);
        return t;
    }

    /** Process a single event. @return false when the queue was empty. */
    bool step();

    /** Process every event scheduled at tick <= @p t; curTick ends at t. */
    void runUntil(Tick t);

    /** Process events until the queue drains. */
    void run();

    /**
     * Process events until the queue drains or @p limit events have been
     * handled. @return the number of events processed (exact: only
     * live events exist in the heap, so every pop is one processed
     * event).
     */
    std::uint64_t run(std::uint64_t limit);

    /** Total number of events processed since construction. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /**
     * Validate the heap invariants: parent/child ordering, index
     * back-pointers, and per-event bookkeeping. O(n); used by tests
     * and debug assertions, never on the hot path.
     * @return true when every invariant holds.
     */
    bool selfCheck() const;

  private:
    /** Heap branching factor: shallower trees than binary and
     *  cache-friendly 4-wide child scans. */
    static constexpr std::size_t arity = 4;

    /**
     * One heap slot. The ordering key lives here, not behind the
     * event pointer: sift compares stay inside the contiguous heap
     * array instead of dereferencing two Events per comparison. Only
     * slot *placement* touches the event (its back-pointer).
     */
    struct Slot
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;
    };

    /** Strict total order: (tick, priority, sequence). */
    static bool
    before(const Slot &a, const Slot &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** Store @p s at slot @p i and update its back-pointer. */
    void
    place(std::size_t i, const Slot &s)
    {
        heap_[i] = s;
        s.ev->_heapIdx = i;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Unlink slot @p i, refilling it from the heap tail. */
    void removeAt(std::size_t i);

    /** Unlink the dead root, if there is one. */
    void
    settle()
    {
        if (deadRoot_) {
            deadRoot_ = false;
            removeAt(0);
        }
    }

    std::vector<Slot> heap_;
    /** heap_[0] holds the last popped event, which is no longer
     *  scheduled: its key still bounds its children, but its event
     *  pointer may dangle. */
    bool deadRoot_ = false;
    Tick _curTick = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numProcessed_ = 0;
};

} // namespace dramless

#endif // DRAMLESS_SIM_EVENT_QUEUE_HH
