/**
 * @file
 * The sweep flags every sweep bench shares (bench/common.hh
 * sweepOptions): each flag lands in its SweepOptions field, a caller's
 * default survives when its flag is absent, unknown arguments pass
 * through, and a malformed value exits 2 with a usage message instead
 * of running a configuration nobody asked for. The benches' own numeric
 * flags (server_scale --sessions, configfuzz --seed) go through the
 * same wholeNumberFlag.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace cryptarch;
using driver::SweepIsolation;
using driver::SweepOptions;

/** Run the parser over @p args as if they followed a program name. */
SweepOptions
parse(std::vector<std::string> args, SweepOptions defaults = {})
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return bench::sweepOptions(static_cast<int>(args.size()), argv.data(),
                               defaults);
}

TEST(SweepFlags, ParsesEveryFlag)
{
    const SweepOptions none = parse({});
    EXPECT_EQ(none.isolation, SweepIsolation::Thread);
    EXPECT_EQ(none.threads, 0u);
    EXPECT_EQ(none.cellDeadlineSeconds, 0);
    EXPECT_TRUE(none.journalPath.empty());

    const SweepOptions all =
        parse({"--isolate=process", "--journal=sweep.journal",
               "--deadline=12.5", "--threads=3"});
    EXPECT_EQ(all.isolation, SweepIsolation::Process);
    EXPECT_EQ(all.journalPath, "sweep.journal");
    EXPECT_DOUBLE_EQ(all.cellDeadlineSeconds, 12.5);
    EXPECT_EQ(all.threads, 3u);

    // --threads=0 keeps meaning "every core"; a later flag wins.
    EXPECT_EQ(parse({"--threads=5", "--threads=0"}).threads, 0u);
    EXPECT_EQ(parse({"--isolate=process", "--isolate=thread"}).isolation,
              SweepIsolation::Thread);

    // A caller's default survives when its flag is absent, and a flag
    // overrides only its own field.
    SweepOptions defaults;
    defaults.isolation = SweepIsolation::Process;
    defaults.cellDeadlineSeconds = 120;
    defaults.respawnBudget = 3;
    const SweepOptions kept = parse({"--threads=2"}, defaults);
    EXPECT_EQ(kept.isolation, SweepIsolation::Process);
    EXPECT_DOUBLE_EQ(kept.cellDeadlineSeconds, 120);
    EXPECT_EQ(kept.respawnBudget, 3u);
    EXPECT_EQ(kept.threads, 2u);
    EXPECT_EQ(parse({"--isolate=thread"}, defaults).isolation,
              SweepIsolation::Thread);

    // A bench's own arguments pass through untouched.
    const SweepOptions mixed =
        parse({"--quick", "--sessions", "5000", "--seed=7", "--threads=4"});
    EXPECT_EQ(mixed.threads, 4u);
    EXPECT_EQ(mixed.isolation, SweepIsolation::Thread);
    EXPECT_TRUE(mixed.journalPath.empty());
}

TEST(SweepFlags, MalformedFlagExitsWithUsage)
{
    EXPECT_EXIT(parse({"--isolate=container"}),
                ::testing::ExitedWithCode(2), "--isolate takes");
    EXPECT_EXIT(parse({"--journal="}), ::testing::ExitedWithCode(2),
                "--journal needs a path");
    for (const char *bad : {"--deadline=0", "--deadline=-1",
                            "--deadline=5abc", "--deadline=inf",
                            "--deadline=nan", "--deadline="})
        EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2),
                    "--deadline needs positive seconds")
            << bad;
    // A count that is not a whole decimal number must not fall back
    // to 0, which means every core.
    for (const char *bad : {"--threads=abc", "--threads=", "--threads=-1",
                            "--threads=4x", "--threads=99999999999"})
        EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2),
                    "--threads needs a whole number")
            << bad;
}

TEST(SweepFlags, WholeNumberFlagParsesDecimalAndHex)
{
    using bench::wholeNumberFlag;
    EXPECT_EQ(wholeNumberFlag("bench", "--seed", "0"), 0u);
    EXPECT_EQ(wholeNumberFlag("bench", "--seed", "5000"), 5000u);
    EXPECT_EQ(wholeNumberFlag("bench", "--seed", "0xC0F12"), 0xC0F12u);
    EXPECT_EQ(wholeNumberFlag("bench", "--seed", "0X1f"), 0x1Fu);
    EXPECT_EQ(wholeNumberFlag("bench", "--seed", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(wholeNumberFlag("bench", "--sessions", "7", 1, 7), 7u);
}

TEST(SweepFlags, WholeNumberFlagRejectsNonNumbers)
{
    // Each of these used to run a default: strtoull read "abc" as 0.
    for (const char *bad : {"abc", "", "-1", "+3", " 5", "4x", "0x",
                            "0xg", "1.5", "18446744073709551616"})
        EXPECT_EXIT(bench::wholeNumberFlag("bench", "--seed", bad),
                    ::testing::ExitedWithCode(2),
                    "bench: --seed needs a whole number")
            << bad;
    EXPECT_EXIT(bench::wholeNumberFlag("bench", "--sessions", "0", 1),
                ::testing::ExitedWithCode(2),
                "--sessions needs a whole number in \\[1, ");
}

} // namespace
