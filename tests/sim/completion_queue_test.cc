/**
 * @file
 * Unit tests of the due-tick completion queue.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/completion_queue.hh"
#include "sim/event_queue.hh"

namespace dramless
{
namespace
{

/** Owner that records every fired item with its firing tick. */
class Recorder
{
  public:
    struct Item
    {
        int id = 0;
        /** When nonzero, the handler pushes item @c follow for the
         *  current tick while firing this one. */
        int follow = 0;
        /** When nonzero, the handler pushes item @c follow this many
         *  ticks after the current one instead. */
        Tick delay = 0;
    };

    explicit Recorder(EventQueue &eq)
        : eq_(eq), queue(eq, this, "recorder")
    {}

    void
    fire(const Item &item, Tick now)
    {
        fired.emplace_back(item.id, now);
        nextTicks.push_back(eq_.nextTick());
        if (item.follow != 0)
            queue.push(now + item.delay, Item{item.follow, 0});
    }

  private:
    EventQueue &eq_;

  public:
    std::vector<std::pair<int, Tick>> fired;
    /** The kernel's next tick as each handler saw it. */
    std::vector<Tick> nextTicks;
    CompletionQueue<Recorder, Item, &Recorder::fire> queue;
};

using Fired = std::vector<std::pair<int, Tick>>;

TEST(CompletionQueueTest, SameTickItemsFireInPushOrder)
{
    EventQueue eq;
    Recorder r(eq);
    r.queue.push(100, {3});
    r.queue.push(100, {1});
    r.queue.push(100, {2});
    eq.run();
    EXPECT_EQ(r.fired, (Fired{{3, 100}, {1, 100}, {2, 100}}));
    EXPECT_TRUE(r.queue.empty());
}

TEST(CompletionQueueTest, LaterPushForEarlierTickFiresFirst)
{
    EventQueue eq;
    Recorder r(eq);
    r.queue.push(200, {1});
    r.queue.push(100, {2});
    eq.run();
    EXPECT_EQ(r.fired, (Fired{{2, 100}, {1, 200}}));
}

TEST(CompletionQueueTest, BatchLeavesOneKernelEvent)
{
    EventQueue eq;
    Recorder r(eq);
    for (int i = 0; i < 10; ++i)
        r.queue.push(100 + Tick(i % 2) * 50, {i});
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.nextTick(), 100u);
    eq.run();
    // One pass per distinct due tick.
    EXPECT_EQ(eq.numProcessed(), 2u);
    EXPECT_EQ(r.fired.size(), 10u);
}

TEST(CompletionQueueTest, HandlerPushForNowFiresInTheSamePass)
{
    EventQueue eq;
    Recorder r(eq);
    r.queue.push(100, {1, /*follow=*/2});
    r.queue.push(100, {3});
    r.queue.push(200, {4});
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(r.fired, (Fired{{1, 100}, {3, 100}, {2, 100}}));
    eq.run();
    EXPECT_EQ(r.fired.back(), (std::pair<int, Tick>{4, 200}));
    EXPECT_TRUE(r.queue.empty());
}

TEST(CompletionQueueTest, BatchLeavesTheQueueBeforeItsHandlersRun)
{
    // Item 1's handler pushes item 9 for tick 150 while item 2 of the
    // same batch is still to fire. The batch left the queue before
    // any handler ran, so the push moves the firing event to 150 and
    // item 2's handler already sees that.
    EventQueue eq;
    Recorder r(eq);
    r.queue.push(100, {1, /*follow=*/9, /*delay=*/50});
    r.queue.push(100, {2});
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(r.fired, (Fired{{1, 100}, {2, 100}}));
    EXPECT_EQ(r.nextTicks, (std::vector<Tick>{maxTick, 150}));
    EXPECT_EQ(eq.nextTick(), 150u);
    eq.run();
    EXPECT_EQ(r.fired.back(), (std::pair<int, Tick>{9, 150}));
    EXPECT_EQ(eq.numProcessed(), 2u);
}

} // namespace
} // namespace dramless
