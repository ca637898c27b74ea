/**
 * @file
 * Id-indexed ring: a table of live requests keyed by ids that one
 * counter hands out in increasing order.
 */

#ifndef DRAMLESS_SIM_ID_RING_HH
#define DRAMLESS_SIM_ID_RING_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace dramless
{

/**
 * Values keyed by increasing ids, each in slot id & (size - 1). Every
 * live id lies in the window [oldest, next): insert() takes ids in
 * increasing order, possibly with gaps, and the ring doubles when the
 * window outgrows it. Lookups and erases are one index, and nothing
 * is allocated once the ring has grown to its working window.
 *
 * @tparam T default-constructible, movable value type
 */
template <typename T>
class IdRing
{
  public:
    /** @param name the table's owner and role, for panic messages */
    explicit IdRing(std::string name) : name_(std::move(name)) {}

    /**
     * Make @p id live with a value-initialized value.
     * @pre @p id is larger than every id inserted before.
     * @return the new value.
     */
    T &
    insert(std::uint64_t id)
    {
        panic_if(id < next_, "%s: id %llu inserted after %llu",
                 name_.c_str(), (unsigned long long)id,
                 (unsigned long long)next_ - 1);
        if (live_ == 0)
            oldest_ = id;
        if (id - oldest_ >= slots_.size())
            grow(id - oldest_ + 1);
        next_ = id + 1;
        ++live_;
        Slot &s = slots_[id & (slots_.size() - 1)];
        s.value = T{};
        s.live = true;
        return s.value;
    }

    /** @return the value of @p id, or null when @p id is not live. */
    T *
    find(std::uint64_t id)
    {
        if (id < oldest_ || id >= next_)
            return nullptr;
        Slot &s = slots_[id & (slots_.size() - 1)];
        return s.live ? &s.value : nullptr;
    }

    /** @return the value of the live id @p id (panics otherwise). */
    T &
    at(std::uint64_t id)
    {
        T *v = find(id);
        panic_if(v == nullptr, "%s: id %llu is not live", name_.c_str(),
                 (unsigned long long)id);
        return *v;
    }

    /** Erase the live id @p id (panics otherwise). @return its value. */
    T
    take(std::uint64_t id)
    {
        T v = std::move(at(id));
        slots_[id & (slots_.size() - 1)].live = false;
        --live_;
        while (oldest_ < next_ &&
               !slots_[oldest_ & (slots_.size() - 1)].live)
            ++oldest_;
        return v;
    }

    /** @return the number of live ids. */
    std::size_t size() const { return live_; }

    /** @return true when no id is live. */
    bool empty() const { return live_ == 0; }

  private:
    struct Slot
    {
        T value{};
        bool live = false;
    };

    /** Re-slot every live id into a ring of at least @p window. */
    void
    grow(std::uint64_t window)
    {
        std::size_t n = std::max<std::size_t>(16, slots_.size());
        while (n < window)
            n *= 2;
        std::vector<Slot> ring(n);
        for (std::uint64_t id = oldest_; id < next_; ++id) {
            Slot &s = slots_[id & (slots_.size() - 1)];
            if (s.live)
                ring[id & (n - 1)] = std::move(s);
        }
        slots_.swap(ring);
    }

    std::string name_;
    std::vector<Slot> slots_;
    std::uint64_t oldest_ = 0;
    std::uint64_t next_ = 0;
    std::size_t live_ = 0;
};

} // namespace dramless

#endif // DRAMLESS_SIM_ID_RING_HH
