/**
 * @file
 * Overlay window and program buffer of a PRAM module (Figure 4).
 *
 * The overlay window is a register region mapped into the PRAM address
 * space at a configurable base (the OWBA). It carries 128 bytes of
 * meta-information, a control register set (command code, data
 * address, execute, status), and the program buffer through which all
 * persistent writes flow.
 */

#ifndef DRAMLESS_PRAM_OVERLAY_WINDOW_HH
#define DRAMLESS_PRAM_OVERLAY_WINDOW_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace dramless
{
namespace pram
{

/** Byte offsets of the overlay window registers (Section V-B). */
namespace ow
{
/** Command code register: memory operation type. */
constexpr std::uint32_t codeReg = 0x80;
/** Data (row) address register. */
constexpr std::uint32_t addressReg = 0x8B;
/** Multi-purpose register: burst size in bytes. */
constexpr std::uint32_t multiPurposeReg = 0x93;
/** Execute register: writing it launches the programmed operation. */
constexpr std::uint32_t executeReg = 0xC0;
/** Status register: progress of the in-flight programs. */
constexpr std::uint32_t statusReg = 0xC8;
/** Start of the program buffer. */
constexpr std::uint32_t programBufferBase = 0x800;

/** Command codes accepted by the code register. */
enum Command : std::uint32_t
{
    cmdNone = 0x00,
    /** Buffered word program via the program buffer. */
    cmdBufferProgram = 0xE9,
};

/** Status register values. */
enum Status : std::uint32_t
{
    statusReady = 0x80,
    statusBusy = 0x00,
};
} // namespace ow

/**
 * Register-accurate overlay window model. The owner (PramModule)
 * interprets execute-register writes; this class only models the
 * register file and the program buffer storage.
 */
class OverlayWindow
{
  public:
    /** @param program_buffer_bytes capacity of the program buffer. */
    explicit OverlayWindow(std::uint32_t program_buffer_bytes = 256)
        : programBuffer_(program_buffer_bytes, 0)
    {}

    /** @return total mapped size: registers plus program buffer. */
    std::uint32_t
    windowBytes() const
    {
        return ow::programBufferBase +
               std::uint32_t(programBuffer_.size());
    }

    /** Set the overlay window base address (word-aligned byte addr). */
    void setBase(std::uint64_t owba) { base_ = owba; }
    /** @return the overlay window base address. */
    std::uint64_t base() const { return base_; }

    /** @return true when module byte address @p addr maps into the
     *  window. */
    bool
    contains(std::uint64_t addr) const
    {
        return addr >= base_ && addr < base_ + windowBytes();
    }

    /** Write a 32-bit register at window offset @p offset. */
    void
    writeReg(std::uint32_t offset, std::uint32_t value)
    {
        switch (offset) {
          case ow::codeReg:
            code_ = value;
            break;
          case ow::addressReg:
            address_ = value;
            break;
          case ow::multiPurposeReg:
            multiPurpose_ = value;
            break;
          case ow::executeReg:
            execute_ = value;
            break;
          case ow::statusReg:
            panic("status register is read-only");
          default:
            panic("write to unknown overlay register 0x%x", offset);
        }
    }

    /** Read a 32-bit register at window offset @p offset. */
    std::uint32_t
    readReg(std::uint32_t offset) const
    {
        switch (offset) {
          case ow::codeReg:
            return code_;
          case ow::addressReg:
            return std::uint32_t(address_);
          case ow::multiPurposeReg:
            return multiPurpose_;
          case ow::statusReg:
            // The window alone runs nothing; reads through the owning
            // module report its program progress instead.
            return ow::statusReady;
          default:
            panic("read of unknown overlay register 0x%x", offset);
        }
    }

    /** Write bytes into the program buffer at @p offset. */
    void
    writeProgramBuffer(std::uint32_t offset, const void *data,
                       std::uint32_t len)
    {
        panic_if(offset + len > programBuffer_.size(),
                 "program buffer overflow (%u + %u > %zu)",
                 offset, len, programBuffer_.size());
        std::memcpy(programBuffer_.data() + offset, data, len);
    }

    /** Read bytes out of the program buffer. */
    void
    readProgramBuffer(std::uint32_t offset, void *out,
                      std::uint32_t len) const
    {
        panic_if(offset + len > programBuffer_.size(),
                 "program buffer overread");
        std::memcpy(out, programBuffer_.data() + offset, len);
    }

    /** @return program buffer capacity in bytes. */
    std::uint32_t
    programBufferBytes() const
    {
        return std::uint32_t(programBuffer_.size());
    }

    /** @return the currently latched command code. */
    std::uint32_t code() const { return code_; }
    /** @return the currently latched target row address. */
    std::uint64_t address() const { return address_; }
    /** @return the currently latched burst size in bytes. */
    std::uint32_t multiPurpose() const { return multiPurpose_; }

  private:
    std::uint64_t base_ = 0;
    std::uint32_t code_ = ow::cmdNone;
    std::uint64_t address_ = 0;
    std::uint32_t multiPurpose_ = 0;
    std::uint32_t execute_ = 0;
    std::vector<std::uint8_t> programBuffer_;
};

} // namespace pram
} // namespace dramless

#endif // DRAMLESS_PRAM_OVERLAY_WINDOW_HH
