/**
 * @file
 * Per-test scratch file names for tests that write trace files.
 *
 * ctest runs every gtest case in its own process, several at once,
 * and the same case can run from two binaries (pomtlb_tests and
 * pomtlb_core_tests). A fixed name under TempDir() would let those
 * processes overwrite each other's files, so each path carries the
 * running test's full name and the process id.
 */

#ifndef POMTLB_TESTS_TEMP_PATH_HH
#define POMTLB_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace pomtlb
{

/**
 * A path under ::testing::TempDir() unique to the running test and
 * process, ending in @p suffix (e.g. "trace.pack").
 */
inline std::string
uniqueTempPath(const std::string &suffix)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) +
                                  "." + info->name()
                            : "no-test";
    // Parameterized suites and cases contain '/'.
    for (char &c : name) {
        if (c == '/')
            c = '_';
    }
    return ::testing::TempDir() + "pomtlb-" + name + "-" +
           std::to_string(::getpid()) + "-" + suffix;
}

} // namespace pomtlb

#endif // POMTLB_TESTS_TEMP_PATH_HH
