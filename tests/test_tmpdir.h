// Scratch directories for tests that write checkpoints.
//
// ctest runs each gtest case in its own process, and `ctest -j` runs many
// at once, so a directory shared between cases lets one case's cleanup
// delete another's files mid-write. TestTmpDir keys its directory on the
// pid and the running test's full name, creates it empty and removes it
// on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace cannikin::testing_util {

class TestTmpDir {
 public:
  /// `tag` tells apart several directories of one test.
  explicit TestTmpDir(const std::string& tag = "") {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                             "." + info->name()
                                       : "no-test";
    if (!tag.empty()) name += "." + tag;
    // Parameterized names contain '/'.
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
          c != '-' && c != '_') {
        c = '_';
      }
    }
    path_ = std::filesystem::temp_directory_path() /
            ("cannikin-test-" + std::to_string(::getpid()) + "-" + name);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestTmpDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TestTmpDir(const TestTmpDir&) = delete;
  TestTmpDir& operator=(const TestTmpDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Number of entries in the system temp dir named "<stem>-<this pid>-*",
/// the shape of cannikin::unique_temp_dir's directories.
inline int temp_dirs_of_this_process(const std::string& stem) {
  const std::string prefix = stem + "-" + std::to_string(::getpid()) + "-";
  int count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path(), ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

}  // namespace cannikin::testing_util
