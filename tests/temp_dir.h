// Scratch directories for the test suites. Each is created empty under the
// system temp directory ($TMPDIR) and removed, with everything in it, when
// the test program ends, so a test run leaves nothing behind there.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace lcda::test {

/// The directories handed out so far. A gtest environment, so they are
/// removed after the last test, and only by the process that ran the tests
/// (never by a child it forks).
class TempDirs final : public ::testing::Environment {
 public:
  void add(const std::filesystem::path& dir) { dirs_.push_back(dir); }

  void TearDown() override {
    for (const std::filesystem::path& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    dirs_.clear();
  }

 private:
  std::vector<std::filesystem::path> dirs_;
};

/// Registered before main runs; gtest owns it.
inline TempDirs* const kTempDirs = static_cast<TempDirs*>(
    ::testing::AddGlobalTestEnvironment(new TempDirs));

/// `$TMPDIR/<name>`, emptied and created, and removed when the test
/// program ends.
inline std::filesystem::path fresh_temp_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  kTempDirs->add(dir);
  return dir;
}

}  // namespace lcda::test
