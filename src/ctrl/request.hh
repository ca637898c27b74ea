/**
 * @file
 * The storage boundary: the request/response types and the backend
 * interface through which the accelerator's MCU reaches every storage
 * organization of Table I, and which the PRAM channel controllers
 * speak internally.
 */

#ifndef DRAMLESS_CTRL_REQUEST_HH
#define DRAMLESS_CTRL_REQUEST_HH

#include <cstdint>
#include <functional>

#include "sim/ticks.hh"

namespace dramless
{
namespace ctrl
{

/** Direction of a memory request. */
enum class ReqKind
{
    read,
    write,
};

/** A memory request as seen by the PRAM subsystem. */
struct MemRequest
{
    ReqKind kind = ReqKind::read;
    /** Byte address in the subsystem's flat address space. */
    std::uint64_t addr = 0;
    /** Size in bytes (multiple of the 32 B access unit). */
    std::uint32_t size = 0;
    /** Optional functional read destination / write source. */
    void *readInto = nullptr;
    const void *writeFrom = nullptr;

    /** @return burst length in @p unit byte words (the controller's
     *  32 B access unit): the request covers this many words. */
    std::uint32_t
    burstWords(std::uint32_t unit) const
    {
        return unit == 0 ? 0 : size / unit;
    }
};

/** Completion notice for a MemRequest. */
struct MemResponse
{
    /** Identifier returned at enqueue time. */
    std::uint64_t id = 0;
    /** Tick the last byte of the request completed. */
    Tick completedAt = 0;
    /**
     * A write word exhausted its program-and-verify retries (only
     * with fault injection enabled). The subsystem reacts by
     * remapping the failed line to a spare and re-issuing.
     */
    bool failed = false;
    /** Channel-local byte address of the first failed word. */
    std::uint64_t failedAddr = 0;
};

/** Completion callback signature. */
using CompletionCallback = std::function<void(const MemResponse &)>;

/**
 * Asynchronous byte-addressed memory service behind the server PE's
 * MCU (Figure 6b). The PRAM subsystem, the embedded SSDs, the
 * NOR-interface PRAM and the accelerator DRAM implement it, so the
 * same accelerator model runs over every storage organization.
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /** Register the completion callback (one consumer: the MCU). */
    virtual void setCallback(CompletionCallback cb) = 0;

    /** @return true when @p req can be admitted now. */
    virtual bool canAccept(const MemRequest &req) const = 0;

    /** Admit @p req. @return the id its MemResponse carries. */
    virtual std::uint64_t enqueue(const MemRequest &req) = 0;

    /** Advisory hint that [addr, addr+size) will be overwritten. */
    virtual void
    hintFutureWrite(std::uint64_t addr, std::uint64_t size)
    {
        (void)addr;
        (void)size;
    }

    /** @return backing capacity in bytes. */
    virtual std::uint64_t capacity() const = 0;
};

} // namespace ctrl
} // namespace dramless

#endif // DRAMLESS_CTRL_REQUEST_HH
