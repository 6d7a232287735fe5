/**
 * @file
 * Per-process, per-test temp file names.
 *
 * ctest runs several test binaries twice at once -- every test on its
 * own through gtest_discover_tests, and the whole binary again under
 * a label or a pinned kernel. A fixed temp name then lets one process
 * truncate a model file the other has mapped, which kills the reader
 * with SIGBUS. Every file test names its temp files through here.
 */

#ifndef HDHAM_TESTS_SUPPORT_TEMP_PATH_HH
#define HDHAM_TESTS_SUPPORT_TEMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace hdham::test
{

/**
 * ::testing::TempDir() + "hdham_<pid>/<test>_" + @p name, where <test>
 * is the running test's name ("none" outside a test; the '/' of a
 * parameterized name becomes '_'). The per-process directory is
 * created on first use and removed, with everything in it, when the
 * process exits normally.
 */
inline std::string
uniqueTempPath(const std::string &name)
{
    struct ProcessDir
    {
        std::filesystem::path path =
            std::filesystem::path(::testing::TempDir()) /
            ("hdham_" + std::to_string(::getpid()));
        ProcessDir() { std::filesystem::create_directories(path); }
        ~ProcessDir()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const ProcessDir dir;
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = info != nullptr ? info->name() : "none";
    std::replace(test.begin(), test.end(), '/', '_');
    return (dir.path / (test + "_" + name)).string();
}

} // namespace hdham::test

#endif // HDHAM_TESTS_SUPPORT_TEMP_PATH_HH
