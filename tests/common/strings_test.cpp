#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/artifact.hpp"
#include "common/error.hpp"

namespace pml {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n z \r"), "z");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(1), "1");
  EXPECT_EQ(format_bytes(512), "512");
  EXPECT_EQ(format_bytes(1024), "1K");
  EXPECT_EQ(format_bytes(65536), "64K");
  EXPECT_EQ(format_bytes(1048576), "1M");
  EXPECT_EQ(format_bytes(1536), "1536");  // not a clean multiple
  EXPECT_EQ(format_bytes(1ULL << 30), "1G");
}

TEST(Strings, FormatTime) {
  EXPECT_EQ(format_time(2.5e-6), "2.50 us");
  EXPECT_EQ(format_time(3.25e-3), "3.25 ms");
  EXPECT_EQ(format_time(1.5), "1.50 s");
  EXPECT_EQ(format_time(7200.0), "2.00 h");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

TEST(Strings, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pml_strings_test.txt")
          .string();
  write_file(path, "hello\nworld");
  EXPECT_EQ(read_file(path), "hello\nworld");
  std::filesystem::remove(path);
}

TEST(Strings, ReadFileIsByteExactForMultiMegabyteBinary) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pml_strings_test_big.bin")
          .string();
  std::string contents(3 * 1024 * 1024 + 17, '\0');
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>((i * 131) % 256);  // NULs every 256 bytes
  }
  write_file(path, contents);
  EXPECT_EQ(read_file(path), contents);
  std::filesystem::remove(path);
}

TEST(Strings, ReadEmptyFileIsEmpty) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pml_strings_test_empty.txt")
          .string();
  write_file(path, "");
  EXPECT_EQ(read_file(path), "");
  std::filesystem::remove(path);
}

TEST(Strings, ReadFileWithoutAReportedSizeReadsToEnd) {
  // procfs reports size 0; the contents must still come back whole.
  EXPECT_NE(read_file("/proc/self/status").find("Name:"), std::string::npos);
}

TEST(Strings, ReadDirectoryThrowsIoError) {
  EXPECT_THROW(
      read_file(std::filesystem::temp_directory_path().string()), IoError);
}

/// A fresh per-test directory under the system temp dir.
class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pml_strings_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

using HashFile = FileTest;

TEST_F(HashFile, EqualsOneShotHashOfReadFile) {
  std::string with_nuls(3 * 1024 * 1024, '\0');
  for (std::size_t i = 0; i < with_nuls.size(); ++i) {
    with_nuls[i] = static_cast<char>((i * 131) % 256);  // NULs every 256 bytes
  }
  // Larger than the stream buffer, and not a whole number of stripes.
  const std::string past_buffer(256 * 1024 * 3 + 37, 'x');
  for (const std::string& contents : {std::string(), with_nuls, past_buffer}) {
    const std::string file = path("f.bin");
    write_file(file, contents);
    EXPECT_EQ(hash_file(file), xxh64(read_file(file)));
  }
}

TEST_F(HashFile, DirectoryOrMissingPathThrowsIoError) {
  EXPECT_THROW(hash_file(dir_.string()), IoError);
  EXPECT_THROW(hash_file(path("missing.bin")), IoError);
}

using WriteFileAtomic = FileTest;

TEST_F(WriteFileAtomic, ConcurrentWritersPublishExactlyOneWritersBytes) {
  // Distinct lengths and fills: a torn or interleaved file matches none.
  constexpr std::size_t kWriters = 8;
  std::vector<std::string> contents;
  for (std::size_t w = 0; w < kWriters; ++w) {
    contents.emplace_back(64 * 1024 + 977 * w, static_cast<char>('a' + w));
  }
  const std::string file = path("model.json");
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        ready.fetch_add(1);
        while (ready.load() < kWriters) std::this_thread::yield();
        EXPECT_NO_THROW(write_file_atomic(file, contents[w]));
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_NE(std::find(contents.begin(), contents.end(), read_file(file)),
              contents.end())
        << "round " << round;
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string(), "model.json")
        << "leftover temp file " << entry.path();
  }
}

TEST(Strings, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/path/file.txt"), Error);
}

TEST(Strings, WriteToBadPathThrows) {
  EXPECT_THROW(write_file("/nonexistent/dir/file.txt", "x"), Error);
}

}  // namespace
}  // namespace pml
