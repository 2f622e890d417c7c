// Loopback TCP client for the newline-delimited serve protocol.
//
// The client is a default one, as a job launcher would open: it sends with
// TCP_NODELAY and keeps the kernel's delayed ACKs. The serve transport does
// not set TCP_NODELAY, so against this client a reply can wait in the
// server's Nagle buffer for the ACK that the next request carries; the
// measured latency includes that wait (README.md, "A transport finding").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class LineClient {
 public:
  /// Connect to 127.0.0.1:`port` with TCP_NODELAY. Throws std::runtime_error.
  explicit LineClient(int port);
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send every byte of `bytes`. Throws std::runtime_error on failure.
  void send(std::string_view bytes);

  /// Block until one complete reply line is available and return it
  /// without its newline. Throws std::runtime_error on EOF or error.
  std::string read_line();

  /// Call `on_line(std::string_view)` for every complete buffered line,
  /// first blocking in one recv when there is none. Returns the number of
  /// lines. Throws on EOF or error.
  template <typename F>
  std::size_t pump(F&& on_line) {
    if (buffer_.find('\n', head_) == std::string::npos) receive();
    std::size_t lines = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', head_)) != std::string::npos;) {
      on_line(std::string_view(buffer_).substr(head_, nl - head_));
      head_ = nl + 1;
      ++lines;
    }
    compact();
    return lines;
  }

  /// Wait up to `timeout_ns` (< 0: forever) until a line is buffered or
  /// the socket is readable.
  bool wait_readable(std::int64_t timeout_ns);

 private:
  void receive();
  void compact();

  int fd_ = -1;
  std::string buffer_;
  std::size_t head_ = 0;  ///< start of the first unconsumed byte
};

}  // namespace perfbench
