/**
 * @file
 * Model-based fuzz tests of the event queue.
 *
 * MatchesReferenceModel drives a modest schedule/deschedule/step mix
 * against a map-based oracle. DifferentialAgainstSortedVector is the
 * heavy differential test for the indexed heap: ~10k randomized
 * operations (mixed priorities, idle reschedules at curTick,
 * destroy-while-descheduled) against a naive sorted-vector reference
 * ordered by the exact kernel key (tick, priority, seq), with heap
 * invariants validated along the way. ActionsInsideHandlers runs the
 * same reference against events that act from inside process(),
 * where the popped event's slot still sits at the root.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace dramless
{
namespace
{

class RecordingEvent : public Event
{
  public:
    explicit RecordingEvent(std::vector<int> *log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_->push_back(id_); }
    std::string name() const override
    {
        return "fuzz" + std::to_string(id_);
    }

  private:
    std::vector<int> *log_;
    int id_;
};

/**
 * Naive reference: a vector kept sorted by the kernel's strict total
 * order (tick, priority, seq). Sequence numbers mirror the queue's
 * allocation rule: one fresh seq per schedule AND per reschedule,
 * starting at 1.
 */
struct SortedVectorRef
{
    struct Entry
    {
        Tick when;
        int prio;
        std::uint64_t seq;
        int id;
    };

    void
    insert(Tick when, int prio, int id)
    {
        Entry e{when, prio, nextSeq++, id};
        entries.insert(std::upper_bound(entries.begin(), entries.end(),
                                        e, less),
                       e);
    }

    void
    erase(int id)
    {
        auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const Entry &e) { return e.id == id; });
        ASSERT_NE(it, entries.end());
        entries.erase(it);
    }

    /** Remove the first entry. @return its id. */
    int
    pop()
    {
        int id = entries.front().id;
        entries.erase(entries.begin());
        return id;
    }

    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }
    Tick nextTick() const
    {
        return entries.empty() ? maxTick : entries.front().when;
    }

    static bool
    less(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.seq < b.seq;
    }

    std::vector<Entry> entries;
    std::uint64_t nextSeq = 1;
};

const int fuzzPrios[] = {Event::highPriority, Event::defaultPriority,
                         Event::lowPriority, -3, 5};

TEST(EventQueueFuzzTest, MatchesReferenceModel)
{
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        Random rng(seed);
        EventQueue eq;
        std::vector<int> fired;

        constexpr int num_events = 32;
        std::vector<std::unique_ptr<RecordingEvent>> events;
        for (int i = 0; i < num_events; ++i)
            events.push_back(
                std::make_unique<RecordingEvent>(&fired, i));

        // Reference model: id -> scheduled tick plus a global
        // insertion order to break ties.
        struct Ref
        {
            Tick when;
            std::uint64_t order;
        };
        std::map<int, Ref> model;
        std::uint64_t order = 0;
        std::vector<int> expected;

        auto model_pop = [&]() -> bool {
            if (model.empty())
                return false;
            auto best = model.begin();
            for (auto it = model.begin(); it != model.end(); ++it) {
                if (it->second.when < best->second.when ||
                    (it->second.when == best->second.when &&
                     it->second.order < best->second.order)) {
                    best = it;
                }
            }
            expected.push_back(best->first);
            model.erase(best);
            return true;
        };

        for (int step = 0; step < 600; ++step) {
            int id = int(rng.below(num_events));
            double dice = rng.uniform();
            if (dice < 0.45) {
                // (Re)schedule at now + random delta.
                Tick when = eq.curTick() + rng.below(1000);
                if (events[id]->scheduled())
                    model.erase(id);
                eq.reschedule(events[id].get(), when);
                model[id] = Ref{when, ++order};
            } else if (dice < 0.6) {
                if (events[id]->scheduled()) {
                    eq.deschedule(events[id].get());
                    model.erase(id);
                }
            } else if (dice < 0.9) {
                // Fire one event in both worlds.
                bool fired_model = model_pop();
                bool fired_real = eq.step();
                ASSERT_EQ(fired_real, fired_model);
            } else {
                ASSERT_EQ(eq.numPending(), model.size());
                // nextTick must agree with the model's minimum.
                Tick model_next = maxTick;
                for (const auto &[_, ref] : model)
                    model_next = std::min(model_next, ref.when);
                ASSERT_EQ(eq.nextTick(), model_next);
            }
        }
        // Drain both.
        while (model_pop()) {
        }
        eq.run();
        ASSERT_EQ(fired, expected) << "seed " << seed;
    }
}

TEST(EventQueueFuzzTest, DifferentialAgainstSortedVector)
{
    for (std::uint64_t seed : {3u, 17u, 4242u}) {
        Random rng(seed);
        EventQueue eq;
        std::vector<int> fired;

        constexpr int num_events = 64;
        std::vector<std::unique_ptr<RecordingEvent>> events;
        for (int i = 0; i < num_events; ++i)
            events.push_back(
                std::make_unique<RecordingEvent>(&fired, i));

        SortedVectorRef ref;
        std::vector<int> expected;

        for (int step = 0; step < 10000; ++step) {
            int id = int(rng.below(num_events));
            Event *ev = events[id].get();
            int prio = fuzzPrios[rng.below(5)];
            double dice = rng.uniform();
            if (dice < 0.30) {
                if (!ev->scheduled()) {
                    Tick when = eq.curTick() + rng.below(500);
                    eq.schedule(ev, when, prio);
                    ref.insert(when, prio, id);
                }
            } else if (dice < 0.50) {
                // Reschedule scheduled or idle events alike; an idle
                // event rescheduled AT curTick must fire this tick.
                Tick when = eq.curTick() + rng.below(200);
                if (ev->scheduled())
                    ref.erase(id);
                eq.reschedule(ev, when, prio);
                ref.insert(when, prio, id);
            } else if (dice < 0.62) {
                if (ev->scheduled()) {
                    eq.deschedule(ev);
                    ref.erase(id);
                }
            } else if (dice < 0.68) {
                // Destroy while descheduled: the eager unlink must
                // leave no dangling heap slot behind.
                if (ev->scheduled()) {
                    eq.deschedule(ev);
                    ref.erase(id);
                }
                events[id] =
                    std::make_unique<RecordingEvent>(&fired, id);
            } else if (dice < 0.95) {
                bool fired_real = eq.step();
                ASSERT_EQ(fired_real, !ref.empty());
                if (!ref.empty())
                    expected.push_back(ref.pop());
            } else {
                // Exactness + invariant audit.
                ASSERT_EQ(eq.numPending(), ref.size());
                ASSERT_EQ(eq.empty(), ref.empty());
                ASSERT_EQ(eq.nextTick(), ref.nextTick());
                ASSERT_TRUE(eq.selfCheck());
            }
        }

        while (!ref.empty())
            expected.push_back(ref.pop());
        eq.run();
        ASSERT_TRUE(eq.empty());
        ASSERT_EQ(eq.numPending(), 0u);
        ASSERT_TRUE(eq.selfCheck());
        ASSERT_EQ(fired, expected) << "seed " << seed;
    }
}

/** Shared state of ActionsInsideHandlers: the queue, its reference
 *  and the random stream every handler draws from. */
struct ActingWorld
{
    explicit ActingWorld(std::uint64_t seed) : rng(seed) {}

    /** Check the queue's counts and next tick against the
     *  reference. */
    void
    expectAgrees() const
    {
        EXPECT_EQ(eq.numPending(), ref.size());
        EXPECT_EQ(eq.empty(), ref.empty());
        EXPECT_EQ(eq.nextTick(), ref.nextTick());
    }

    EventQueue eq;
    Random rng;
    SortedVectorRef ref;
    std::vector<std::unique_ptr<Event>> events;
    std::vector<int> fired;
    /** Handlers act only while this is set. */
    bool acting = true;
};

/** An event whose handler reschedules itself or schedules,
 *  deschedules and reschedules other events. */
class ActingEvent : public Event
{
  public:
    ActingEvent(ActingWorld *w, int id) : w_(w), id_(id) {}

    void
    process() override
    {
        ActingWorld &w = *w_;
        w.fired.push_back(id_);
        // The popped slot still sits at the root: the counts and the
        // next tick must not see it.
        w.expectAgrees();
        if (!w.acting)
            return;
        const int actions = int(w.rng.below(4));
        for (int a = 0; a < actions; ++a) {
            const int id = int(w.rng.below(w.events.size()));
            Event *ev = w.events[id].get();
            const int prio = fuzzPrios[w.rng.below(5)];
            const Tick when = w.eq.curTick() + w.rng.below(300);
            const double dice = w.rng.uniform();
            if (dice < 0.30) {
                // The common handler shape: reschedule itself.
                if (!scheduled()) {
                    w.eq.schedule(this, when, prio);
                    w.ref.insert(when, prio, id_);
                }
            } else if (dice < 0.45) {
                if (!ev->scheduled()) {
                    w.eq.schedule(ev, when, prio);
                    w.ref.insert(when, prio, id);
                }
            } else if (dice < 0.70) {
                if (ev->scheduled())
                    w.ref.erase(id);
                w.eq.reschedule(ev, when, prio);
                w.ref.insert(when, prio, id);
            } else if (dice < 0.85) {
                if (ev->scheduled()) {
                    w.eq.deschedule(ev);
                    w.ref.erase(id);
                }
            } else {
                w.expectAgrees();
            }
        }
    }

    std::string name() const override
    {
        return "acting" + std::to_string(id_);
    }

  private:
    ActingWorld *w_;
    int id_;
};

TEST(EventQueueFuzzTest, ActionsInsideHandlers)
{
    for (std::uint64_t seed : {5u, 31u, 2024u}) {
        ActingWorld w(seed);
        constexpr int num_events = 48;
        for (int i = 0; i < num_events; ++i)
            w.events.push_back(std::make_unique<ActingEvent>(&w, i));
        std::vector<int> expected;

        for (int step = 0; step < 20000; ++step) {
            if (w.ref.size() < 4) {
                // Keep the heap a few levels deep.
                const int id = int(w.rng.below(num_events));
                if (!w.events[id]->scheduled()) {
                    const Tick when = w.eq.curTick() + w.rng.below(300);
                    w.eq.schedule(w.events[id].get(), when);
                    w.ref.insert(when, Event::defaultPriority, id);
                }
                continue;
            }
            expected.push_back(w.ref.pop());
            ASSERT_TRUE(w.eq.step());
            ASSERT_EQ(w.fired.back(), expected.back()) << "seed " << seed;
            ASSERT_TRUE(w.eq.selfCheck());
            w.expectAgrees();
            // Destroy the event whose slot is now the dead root, when
            // nothing took the slot over: the next mutation must
            // settle the root without reading the event.
            const int last = expected.back();
            if (!w.events[last]->scheduled() && w.rng.below(8) == 0)
                w.events[last] = std::make_unique<ActingEvent>(&w, last);
        }

        w.acting = false;
        while (!w.ref.empty()) {
            expected.push_back(w.ref.pop());
            ASSERT_TRUE(w.eq.step());
        }
        ASSERT_FALSE(w.eq.step());
        ASSERT_TRUE(w.eq.empty());
        ASSERT_TRUE(w.eq.selfCheck());
        ASSERT_EQ(w.fired, expected) << "seed " << seed;
    }
}

} // namespace
} // namespace dramless
