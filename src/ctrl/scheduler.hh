/**
 * @file
 * Scheduler policy configurations of the PRAM subsystem (Section V-A,
 * Figure 13).
 */

#ifndef DRAMLESS_CTRL_SCHEDULER_HH
#define DRAMLESS_CTRL_SCHEDULER_HH

#include <string>

namespace dramless
{
namespace ctrl
{

/**
 * Knobs of the hardware-automated memory scheduler. The four named
 * presets correspond to the four bars of Figure 13.
 */
struct SchedulerConfig
{
    /**
     * Multi-resource aware interleaving: overlap one request's
     * partition sense (tRCD) with another request's data burst, using
     * the multiple row buffers and partitions (Figure 12). When off,
     * requests are serviced strictly one at a time in FIFO order.
     */
    bool interleaving = true;

    /**
     * Selective erasing: opportunistically pre-RESET (program all-zero
     * words to) addresses hinted as future write targets so demand
     * overwrites need only the SET pulse train.
     */
    bool selectiveErasing = true;

    // The presets use designated initializers on purpose: positional
    // aggregate init silently mis-binds when a field is added or
    // reordered.

    /** @return Figure 13 "Bare-metal": noop scheduler. */
    static SchedulerConfig
    bareMetal()
    {
        return SchedulerConfig{.interleaving = false,
                               .selectiveErasing = false};
    }

    /** @return Figure 13 "Interleaving". */
    static SchedulerConfig
    interleavingOnly()
    {
        return SchedulerConfig{.interleaving = true,
                               .selectiveErasing = false};
    }

    /** @return Figure 13 "selective-erasing". */
    static SchedulerConfig
    selectiveErasingOnly()
    {
        return SchedulerConfig{.interleaving = false,
                               .selectiveErasing = true};
    }

    /** @return Figure 13 "Final": both techniques (DRAM-less default). */
    static SchedulerConfig
    finalConfig()
    {
        return SchedulerConfig{.interleaving = true,
                               .selectiveErasing = true};
    }

    /** @return a short label for tables. */
    std::string
    label() const
    {
        if (interleaving && selectiveErasing)
            return "Final";
        if (interleaving)
            return "Interleaving";
        if (selectiveErasing)
            return "selective-erasing";
        return "Bare-metal";
    }
};

} // namespace ctrl
} // namespace dramless

#endif // DRAMLESS_CTRL_SCHEDULER_HH
