/**
 * @file
 * Lazily paged arrays for sparse per-index state.
 *
 * Device models keep state per PRAM word or per flash page over index
 * spaces of millions of entries, of which a run touches a fraction. A
 * PagedArray allocates a page of entries on the first write to it;
 * every entry of a page never written reads the fill value, so an
 * untouched array costs neither memory nor construction time.
 */

#ifndef DRAMLESS_SIM_PAGED_ARRAY_HH
#define DRAMLESS_SIM_PAGED_ARRAY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace dramless
{

/** Array of @p T indexed from 0, in pages of 2^PageBits entries. */
template <typename T, unsigned PageBits>
class PagedArray
{
  public:
    /** @param fill the value every unwritten entry reads */
    explicit PagedArray(T fill = T{}) : fill_(fill) {}

    /** @return entry @p i, or the fill value when its page was never
     *  written. */
    T
    get(std::uint64_t i) const
    {
        const std::uint64_t p = i >> PageBits;
        return p < pages_.size() && pages_[p] ? (*pages_[p])[i & mask]
                                              : fill_;
    }

    /** @return entry @p i for writing; allocates its page, filled
     *  with the fill value, on first use. */
    T &
    ref(std::uint64_t i)
    {
        const std::uint64_t p = i >> PageBits;
        if (p >= pages_.size())
            pages_.resize(p + 1);
        if (!pages_[p]) {
            pages_[p] = std::make_unique_for_overwrite<Page>();
            pages_[p]->fill(fill_);
        }
        return (*pages_[p])[i & mask];
    }

  private:
    static constexpr std::uint64_t mask =
        (std::uint64_t(1) << PageBits) - 1;
    using Page = std::array<T, mask + 1>;

    T fill_;
    std::vector<std::unique_ptr<Page>> pages_;
};

/** A set of word indices: a bitmap in 4 KiB pages of 32 Ki words. */
class WordBitmap
{
  public:
    bool test(std::uint64_t w) const { return bits_.get(w >> 6) & bit(w); }

    void set(std::uint64_t w) { bits_.ref(w >> 6) |= bit(w); }

    /** Clear @p w; a page that holds no set word stays unallocated. */
    void
    reset(std::uint64_t w)
    {
        if (test(w))
            bits_.ref(w >> 6) &= ~bit(w);
    }

  private:
    static std::uint64_t bit(std::uint64_t w)
    {
        return std::uint64_t(1) << (w & 63);
    }

    PagedArray<std::uint64_t, 9> bits_;
};

} // namespace dramless

#endif // DRAMLESS_SIM_PAGED_ARRAY_HH
