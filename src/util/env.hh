/**
 * @file
 * Centralized CRYPTARCH_* environment parsing.
 *
 * Every knob the simulator reads from the environment goes through
 * these helpers so unrecognized values behave uniformly: the caller's
 * default is used AND one typed warning line naming the variable, the
 * rejected value and the accepted values is emitted to stderr — once
 * per variable per process, so a sweep spawning thousands of cells
 * cannot flood the log. A typo that quietly meant the default is
 * exactly the class of config mistake this repo's hardening layer
 * exists to surface. Sweep settings are not environment knobs: they
 * arrive as explicit driver::SweepOptions (driver/sweep.hh).
 */

#ifndef CRYPTARCH_UTIL_ENV_HH
#define CRYPTARCH_UTIL_ENV_HH

#include <cstdint>

namespace cryptarch::util
{

/**
 * Parse @p var as a boolean flag: "1"/"on"/"true"/"yes" are true,
 * "0"/"off"/"false"/"no" are false, unset is @p dflt, anything else
 * warns (once) and is @p dflt.
 */
bool envFlag(const char *var, bool dflt);

/**
 * Parse @p var as an unsigned decimal integer. Unset returns @p dflt;
 * trailing garbage or overflow warns (once) and returns @p dflt.
 */
uint64_t envU64(const char *var, uint64_t dflt);

/**
 * Process-wide count of unrecognized-value warnings emitted. Tests
 * assert the once-per-variable policy through this counter.
 */
uint64_t envWarningCount();

/** Forget which variables already warned (test isolation only). */
void resetEnvWarningsForTesting();

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_ENV_HH
