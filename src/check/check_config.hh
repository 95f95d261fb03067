/**
 * @file
 * Configuration of the invariant-checking layer (src/check/).
 *
 * Kept free of other mcsim headers so core/machine_config.hh can embed a
 * CheckConfig without pulling the checker implementation into every
 * translation unit.
 */

#ifndef MCSIM_CHECK_CHECK_CONFIG_HH
#define MCSIM_CHECK_CHECK_CONFIG_HH

#include <cstdint>

namespace mcsim::check
{

/** What to do when an auditor detects a violation. */
enum class CheckMode : std::uint8_t
{
    Off,    ///< no checking at all (sweep points: zero overhead)
    Count,  ///< count violations in CheckStats; warn on the first few
    Fatal,  ///< throw FatalError at the first violation (tests)
};

/**
 * Which auditors run and how they report. Checking is on by default:
 * every test runs fully audited; sweep points
 * (exp::SweepPoint::machineConfig) switch it off unless they ask for
 * checks, so the reported timings carry no checking overhead.
 */
struct CheckConfig
{
    CheckMode mode = CheckMode::Fatal;

    /** Directory/cache agreement auditing after protocol transitions. */
    bool coherence = true;
    /** Model-specific issue/completion ordering rules. */
    bool ordering = true;
    /** Happens-before data-race detection over simulated accesses.
     *  Disable for intentionally racy programs (the synthetic stress
     *  workload, the litmus demo); a race means WO/RC results are
     *  undefined per the paper's data-race-free assumption. */
    bool races = true;

    bool enabled() const
    {
        return mode != CheckMode::Off && (coherence || ordering || races);
    }
};

} // namespace mcsim::check

#endif // MCSIM_CHECK_CHECK_CONFIG_HH
