// Small string and unit-formatting helpers used across the libraries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pml {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// "1", "1K", "64K", "1M" — power-of-two byte counts as OMB-style labels.
std::string format_bytes(std::uint64_t bytes);

/// "12.3 us", "4.56 ms", "7.89 s" — human-readable durations from seconds.
std::string format_time(double seconds);

/// Fixed-precision double, e.g. format_double(3.14159, 2) == "3.14".
std::string format_double(double value, int precision);

/// Read an entire file into a string; throws pml::Error on failure.
std::string read_file(const std::string& path);

/// XXH64 (seed 0) of a file's bytes, streamed through one fixed buffer;
/// equals xxh64(read_file(path)) without holding the file in memory.
/// Throws pml::IoError on the same failures as read_file.
std::uint64_t hash_file(const std::string& path);

/// Write a string to a file (overwrite); throws pml::Error on failure.
void write_file(const std::string& path, std::string_view contents);

/// Atomically replace `path` with `contents`: write to a temp file of this
/// call's own (`path.tmp.<pid>.<n>`), fsync, then rename over the target,
/// so readers never observe a torn file and concurrent writers never share
/// a temp inode. Throws pml::IoError on failure (the temp file is cleaned
/// up).
void write_file_atomic(const std::string& path, std::string_view contents);

}  // namespace pml
