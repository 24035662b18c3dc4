/**
 * @file
 * Centralized CRYPTARCH_* environment parsing: accepted values parse,
 * unrecognized values keep the default and warn exactly once per
 * variable per process.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/env.hh"

namespace
{

using namespace cryptarch;

class EnvGuard
{
  public:
    EnvGuard(const char *var, const char *value) : var_(var)
    {
        ::setenv(var, value, 1);
    }
    ~EnvGuard() { ::unsetenv(var_); }

  private:
    const char *var_;
};

TEST(Env, UnrecognizedValueWarnsOncePerVariable)
{
    util::resetEnvWarningsForTesting();
    EnvGuard g("CRYPTARCH_TEST_WARN", "typo");
    const uint64_t before = util::envWarningCount();
    EXPECT_EQ(util::envU64("CRYPTARCH_TEST_WARN", 7), 7u);
    EXPECT_EQ(util::envWarningCount(), before + 1);
    // Re-reading the same broken variable must not warn again — a
    // sweep re-reads policy per cell and one typo is one line.
    EXPECT_EQ(util::envU64("CRYPTARCH_TEST_WARN", 7), 7u);
    EXPECT_EQ(util::envWarningCount(), before + 1);
    // A different variable warns independently.
    EnvGuard g2("CRYPTARCH_TEST_WARN2", "also-bad");
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_WARN2", false));
    EXPECT_EQ(util::envWarningCount(), before + 2);
}

TEST(Env, FlagParsesAllSpellings)
{
    ::unsetenv("CRYPTARCH_TEST_FLAG");
    EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG", true));
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG", false));
    for (const char *t : {"1", "on", "true", "yes"}) {
        EnvGuard g("CRYPTARCH_TEST_FLAG", t);
        EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG", false)) << t;
    }
    for (const char *f : {"0", "off", "false", "no"}) {
        EnvGuard g("CRYPTARCH_TEST_FLAG", f);
        EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG", true)) << f;
    }
}

TEST(Env, MalformedFlagKeepsDefaultAndWarns)
{
    util::resetEnvWarningsForTesting();
    EnvGuard g("CRYPTARCH_TEST_FLAG_BAD", "maybe");
    const uint64_t before = util::envWarningCount();
    EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG_BAD", true));
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG_BAD", false));
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

TEST(Env, U64ParsesAndRejectsGarbage)
{
    ::unsetenv("CRYPTARCH_TEST_U64");
    EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 42u);
    {
        EnvGuard g("CRYPTARCH_TEST_U64", "123456789");
        EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 123456789u);
    }
    util::resetEnvWarningsForTesting();
    const uint64_t before = util::envWarningCount();
    {
        EnvGuard g("CRYPTARCH_TEST_U64", "12abc");
        EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 42u);
    }
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

} // namespace
