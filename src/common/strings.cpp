#include "common/strings.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/artifact.hpp"
#include "common/error.hpp"

namespace pml {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0) {
    return std::to_string(bytes >> 30) + "G";
  }
  if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) {
    return std::to_string(bytes >> 20) + "M";
  }
  if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) {
    return std::to_string(bytes >> 10) + "K";
  }
  return std::to_string(bytes);
}

std::string format_time(double seconds) {
  char buf[48];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f h", seconds / 3600.0);
  }
  return buf;
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

namespace {

/// Open `path` for reading and call `body(fstat_size, read_some)`, where
/// read_some(into, len) returns the bytes read and 0 at end of file. The
/// error handling read_file and hash_file share: IoError on open, stat
/// and read failures, directories rejected, reads retried on EINTR.
template <typename Body>
auto with_input_file(const std::string& path, Body&& body) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw IoError("cannot open file for reading: " + path);
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw IoError("cannot stat file: " + path + ": " + std::strerror(errno));
  }
  // Opening a directory "succeeds" on Linux and reads fail or yield
  // nothing; surface it as the IO failure it is.
  if (S_ISDIR(st.st_mode)) {
    throw IoError("cannot read a directory: " + path);
  }
  const auto read_some = [&](char* into, std::size_t len) -> std::size_t {
    while (true) {
      const ::ssize_t n = ::read(fd, into, len);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno != EINTR) {
        throw IoError("read failed: " + path + ": " + std::strerror(errno));
      }
    }
  };
  return body(static_cast<std::size_t>(st.st_size), read_some);
}

}  // namespace

std::string read_file(const std::string& path) {
  return with_input_file(path, [](std::size_t size, const auto& read_some) {
    // Size the buffer from fstat and read straight into it: one
    // allocation, one copy.
    std::string out(size, '\0');
    std::size_t used = 0;
    while (used < out.size()) {
      const std::size_t n = read_some(out.data() + used, out.size() - used);
      if (n == 0) break;  // shrank since fstat
      used += n;
    }
    out.resize(used);
    // Whatever lies past the fstat size: a file still growing, or one
    // that reports no size at all (pipes, /proc).
    char chunk[16384];
    while (const std::size_t n = read_some(chunk, sizeof chunk)) {
      out.append(chunk, n);
    }
    return out;
  });
}

std::uint64_t hash_file(const std::string& path) {
  return with_input_file(path, [](std::size_t, const auto& read_some) {
    // One fixed buffer, however large the file: each chunk is hashed
    // while still in cache, and nothing file-sized is allocated.
    constexpr std::size_t kBuffer = 256 * 1024;
    const auto buffer = std::make_unique_for_overwrite<char[]>(kBuffer);
    Xxh64 state;
    while (const std::size_t n = read_some(buffer.get(), kBuffer)) {
      state.update(std::string_view(buffer.get(), n));
    }
    return state.digest();
  });
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open file for writing: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) throw IoError("write failed: " + path);
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  // A temp name of our own: concurrent writers of one path each write
  // their own inode, so the rename publishes exactly one writer's bytes
  // and no writer can unlink another's temp file. O_EXCL refuses a stale
  // name left by a crashed process whose pid was reused; take the next.
  static std::atomic<std::uint64_t> counter{0};
  const std::string stem = path + ".tmp." + std::to_string(::getpid()) + ".";
  std::string tmp;
  int fd = -1;
  do {
    tmp = stem + std::to_string(counter.fetch_add(1));
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EEXIST);
  if (fd < 0) {
    throw IoError("cannot open file for writing: " + tmp + ": " +
                  std::strerror(errno));
  }
  const auto fail = [&tmp](const std::string& what) -> IoError {
    IoError err(what + ": " + tmp + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return err;
  };

  const char* data = contents.data();
  std::size_t left = contents.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw fail("write failed");
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: without it a crash can publish an empty file
  // under the final name on some filesystems.
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw fail("fsync failed");
  }
  if (::close(fd) != 0) throw fail("close failed");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw fail("rename to " + path + " failed");
  }
}

}  // namespace pml
