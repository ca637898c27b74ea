/**
 * @file
 * Due-tick completion queue: work that finishes at a known future
 * tick, handed back to its owner in tick order by one persistent
 * event.
 */

#ifndef DRAMLESS_SIM_COMPLETION_QUEUE_HH
#define DRAMLESS_SIM_COMPLETION_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace dramless
{

/**
 * Items due at future ticks, delivered to the owner's @p Fire member
 * in tick order, and in push order within a tick. One MemberEvent
 * tracks the earliest due tick: every push reschedules it there, so
 * a batch falling due together costs one kernel event. A pass fires
 * every item due by the current tick, including items a handler
 * pushes for the current tick while the pass runs. @p Fire is bound
 * at compile time, so firing an item is a direct call.
 *
 * Due items sit in one flat binary heap keyed (tick, push order), so
 * a push allocates nothing once the heap has grown to its working
 * size.
 *
 * Usage: CompletionQueue<Ssd, std::uint64_t, &Ssd::complete>.
 */
template <typename T, typename Item, void (T::*Fire)(const Item &, Tick)>
class CompletionQueue
{
  public:
    /**
     * @param eq the owner's event queue
     * @param owner receiver of the @p Fire calls
     * @param name diagnostic name of the firing event
     */
    CompletionQueue(EventQueue &eq, T *owner, std::string name)
        : eventq_(eq), owner_(owner), event_(this, std::move(name))
    {}

    /** Queue @p item to fire at @p when (not before the current
     *  tick). */
    void
    push(Tick when, Item item)
    {
        due_.push_back(Due{when, nextOrder_++, std::move(item)});
        std::push_heap(due_.begin(), due_.end(), later);
        eventq_.reschedule(&event_, due_.front().when);
    }

    /** @return true when no item is waiting. */
    bool empty() const { return due_.empty(); }

  private:
    struct Due
    {
        Tick when;
        std::uint64_t order;
        Item item;
    };

    /** Heap order: the earliest (tick, push order) on top. */
    static bool
    later(const Due &a, const Due &b)
    {
        return a.when != b.when ? a.when > b.when : a.order > b.order;
    }

    void
    fire()
    {
        const Tick now = eventq_.curTick();
        while (!due_.empty() && due_.front().when <= now) {
            // Take the whole batch due at the earliest tick before any
            // handler runs: a handler's push then reschedules past the
            // batch, not onto it.
            const Tick at = due_.front().when;
            batch_.clear();
            while (!due_.empty() && due_.front().when == at) {
                std::pop_heap(due_.begin(), due_.end(), later);
                batch_.push_back(std::move(due_.back().item));
                due_.pop_back();
            }
            for (const Item &item : batch_)
                (owner_->*Fire)(item, now);
        }
        if (!due_.empty())
            eventq_.reschedule(&event_, due_.front().when);
    }

    EventQueue &eventq_;
    T *owner_;
    std::vector<Due> due_;
    std::uint64_t nextOrder_ = 0;
    /** The batch being fired (reused across passes). */
    std::vector<Item> batch_;
    MemberEvent<CompletionQueue, &CompletionQueue::fire> event_;
};

} // namespace dramless

#endif // DRAMLESS_SIM_COMPLETION_QUEUE_HH
