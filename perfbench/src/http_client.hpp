// Minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection, for driving the embedded control plane.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class HttpClient {
 public:
  /// `max_requests_per_connection` mirrors the server's
  /// ServerOptions::max_keepalive_requests: the server closes a
  /// connection after that many responses without saying so, so the
  /// client reconnects before sending the next request.
  HttpClient(std::uint16_t port, int max_requests_per_connection);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and reads the response. Returns the status code
  /// and fills `body`. A connection the server closed while idle is
  /// reopened once and the request resent (the server had not read it).
  /// Throws std::runtime_error on any other I/O or framing failure.
  int request(const std::string& method, const std::string& path,
              const std::string& payload, std::string& body);

  std::uint64_t reconnects() const { return reconnects_; }

 private:
  void connect();
  void disconnect();
  /// -1 when the connection was closed before any response byte arrived.
  int exchange(const std::string& wire, std::string& body);

  std::uint16_t port_;
  int max_per_connection_;
  int fd_ = -1;
  int sent_on_connection_ = 0;
  std::uint64_t reconnects_ = 0;
  std::string buffer_;  ///< bytes read past the previous response
};

}  // namespace perfbench
