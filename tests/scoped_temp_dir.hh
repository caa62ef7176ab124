#ifndef PROCOUP_TESTS_SCOPED_TEMP_DIR_HH
#define PROCOUP_TESTS_SCOPED_TEMP_DIR_HH

/**
 * @file
 * A fresh directory under /tmp for one test, removed with everything
 * in it (journals, compile-cache entries, sockets) when the test's
 * scope ends, so a test run leaves nothing behind.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace procoup {
namespace testutil {

class ScopedTempDir
{
  public:
    explicit ScopedTempDir(const std::string& prefix = "procoup_test")
    {
        std::string tmpl = "/tmp/" + prefix + "_XXXXXX";
        if (::mkdtemp(tmpl.data()) != nullptr)
            _path = tmpl;
        EXPECT_FALSE(_path.empty()) << "mkdtemp " << tmpl;
    }

    ~ScopedTempDir()
    {
        std::error_code ec;
        if (!_path.empty())
            std::filesystem::remove_all(_path, ec);
    }

    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    const std::string& path() const { return _path; }

  private:
    std::string _path;
};

} // namespace testutil
} // namespace procoup

#endif // PROCOUP_TESTS_SCOPED_TEMP_DIR_HH
