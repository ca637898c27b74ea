/**
 * @file
 * Due-tick completion queue: work that finishes at a known future
 * tick, handed back to its owner in tick order by one persistent
 * event.
 */

#ifndef DRAMLESS_SIM_COMPLETION_QUEUE_HH
#define DRAMLESS_SIM_COMPLETION_QUEUE_HH

#include <map>
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
        due_[when].push_back(std::move(item));
        eventq_.reschedule(&event_, due_.begin()->first);
    }

    /** @return true when no item is waiting. */
    bool empty() const { return due_.empty(); }

  private:
    void
    fire()
    {
        const Tick now = eventq_.curTick();
        while (!due_.empty() && due_.begin()->first <= now) {
            std::vector<Item> batch = std::move(due_.begin()->second);
            due_.erase(due_.begin());
            for (const Item &item : batch)
                (owner_->*Fire)(item, now);
        }
        if (!due_.empty())
            eventq_.reschedule(&event_, due_.begin()->first);
    }

    EventQueue &eventq_;
    T *owner_;
    std::map<Tick, std::vector<Item>> due_;
    MemberEvent<CompletionQueue, &CompletionQueue::fire> event_;
};

} // namespace dramless

#endif // DRAMLESS_SIM_COMPLETION_QUEUE_HH
