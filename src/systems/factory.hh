/**
 * @file
 * Registry of the evaluated accelerated systems (Table I) and the
 * factory constructing them.
 */

#ifndef DRAMLESS_SYSTEMS_FACTORY_HH
#define DRAMLESS_SYSTEMS_FACTORY_HH

#include <memory>
#include <vector>

#include "systems/hetero_system.hh"
#include "systems/integrated_system.hh"
#include "systems/system.hh"

namespace dramless
{
namespace systems
{

/** Every evaluated configuration. */
enum class SystemKind
{
    hetero,
    heterodirect,
    heteroPram,
    heterodirectPram,
    norIntf,
    integratedSlc,
    integratedMlc,
    integratedTlc,
    pageBuffer,
    dramLess,
    dramLessFirmware,
    ideal,
};

/** Static description of a system for Table I. */
struct SystemInfo
{
    SystemKind kind;
    const char *label;
    bool heterogeneous;
    bool internalDram;
    /** NVM read / write / erase latencies in microseconds (write may
     *  be a range string); mirrors Table I. */
    const char *nvmRead;
    const char *nvmWrite;
    const char *nvmErase;
};

/** Factory and registry. */
class SystemFactory
{
  public:
    /** @return the ten evaluated systems in Table I / Figure 15
     *  order (Hetero ... DRAM-less). */
    static std::vector<SystemKind> evaluationOrder();

    /** @return the label of @p kind. */
    static const char *label(SystemKind kind);

    /** @return Table I's row for @p kind. */
    static SystemInfo info(SystemKind kind);

    /** Construct a fresh system instance. */
    static std::unique_ptr<AcceleratedSystem>
    create(SystemKind kind, const SystemOptions &opts);

    /**
     * Construct a DRAM-less instance with an explicit scheduler
     * (the Figure 13 variants).
     */
    static std::unique_ptr<AcceleratedSystem>
    createDramLessVariant(IntegratedKind kind,
                          const SystemOptions &opts);
};

} // namespace systems
} // namespace dramless

#endif // DRAMLESS_SYSTEMS_FACTORY_HH
