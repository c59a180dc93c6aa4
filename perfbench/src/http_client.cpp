#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

HttpClient::HttpClient(std::uint16_t port, int max_requests_per_connection)
    : port_(port), max_per_connection_(max_requests_per_connection) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    disconnect();
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port_) + ": " + err);
  }
  sent_on_connection_ = 0;
  buffer_.clear();
}

void HttpClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int HttpClient::request(const std::string& method, const std::string& path,
                        const std::string& payload, std::string& body) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!payload.empty() || method == "POST") {
    wire += "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(payload.size()) + "\r\n";
  }
  wire += "\r\n" + payload;

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ >= 0 && sent_on_connection_ >= max_per_connection_) disconnect();
    if (fd_ < 0) {
      if (attempt > 0 || sent_on_connection_ > 0) ++reconnects_;
      connect();
    }
    const int status = exchange(wire, body);
    if (status >= 0) return status;
    disconnect();  // closed while idle: reopen and resend once
  }
  throw std::runtime_error(method + " " + path + ": connection closed twice");
}

int HttpClient::exchange(const std::string& wire, std::string& body) {
  for (std::size_t off = 0; off < wire.size();) {
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    off += static_cast<std::size_t>(n);
  }
  ++sent_on_connection_;

  bool got_any = !buffer_.empty();
  auto fill = [&]() {
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      got_any = true;
      return true;
    }
  };

  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      if (!got_any) return -1;
      throw std::runtime_error("connection closed inside a response head");
    }
  }
  const std::string head = buffer_.substr(0, head_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) {
    throw std::runtime_error("malformed status line");
  }
  const int status = std::stoi(head.substr(9, 3));
  std::size_t length = 0;
  bool close_after = false;
  for (std::size_t pos = head.find("\r\n"); pos != std::string::npos;) {
    const std::size_t next = head.find("\r\n", pos + 2);
    std::string line = head.substr(pos + 2, next == std::string::npos ? std::string::npos : next - pos - 2);
    for (char& c : line) {
      if (c == ':') break;
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (line.rfind("content-length:", 0) == 0) {
      length = std::stoul(line.substr(15));
    } else if (line.rfind("connection:", 0) == 0 &&
               line.find("close") != std::string::npos) {
      close_after = true;
    }
    pos = next;
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    if (!fill()) throw std::runtime_error("connection closed inside a response body");
  }
  body = buffer_.substr(body_start, length);
  buffer_.erase(0, body_start + length);
  if (close_after) disconnect();
  return status;
}

}  // namespace perfbench
