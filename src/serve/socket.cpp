#include "serve/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"

namespace megh::serve {

namespace {

constexpr std::size_t kFrameHeaderSize = 4 + 2;

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xff);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

void write_all_fd(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(strf("serve socket: write failed: %s",
                         std::strerror(errno)));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; throws on EOF anywhere else.
bool read_exact(int fd, std::uint8_t* data, std::size_t size, bool eof_ok) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(strf("serve socket: read failed: %s",
                         std::strerror(errno)));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw IoError(strf(
          "serve socket: connection closed mid-frame (%zu of %zu bytes)",
          got, size));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

sockaddr_un make_addr(const std::filesystem::path& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string s = path.string();
  if (s.size() >= sizeof(addr.sun_path)) {
    throw ConfigError(strf("serve socket: path too long (%zu bytes, max %zu): %s",
                           s.size(), sizeof(addr.sun_path) - 1, s.c_str()));
  }
  std::memcpy(addr.sun_path, s.c_str(), s.size() + 1);
  return addr;
}

}  // namespace

void write_frame(int fd, MsgType type, std::span<const std::uint8_t> payload) {
  MEGH_REQUIRE(payload.size() <= kMaxFramePayload,
               "serve socket: frame payload too large");
  std::uint8_t header[kFrameHeaderSize];
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u16(header + 4, static_cast<std::uint16_t>(type));
  write_all_fd(fd, header, sizeof header);
  if (!payload.empty()) write_all_fd(fd, payload.data(), payload.size());
}

bool read_frame(int fd, MsgType& type, std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kFrameHeaderSize];
  if (!read_exact(fd, header, sizeof header, /*eof_ok=*/true)) return false;
  const std::uint32_t len = get_u32(header);
  if (len > kMaxFramePayload) {
    throw IoError(strf("serve socket: frame payload of %u bytes exceeds the "
                       "%u-byte limit (corrupt stream?)",
                       len, kMaxFramePayload));
  }
  type = static_cast<MsgType>(get_u16(header + 4));
  payload.resize(len);
  if (len > 0) read_exact(fd, payload.data(), len, /*eof_ok=*/false);
  return true;
}

SocketServer::SocketServer(MeghServer& server,
                           std::filesystem::path socket_path)
    : server_(server), socket_path_(std::move(socket_path)) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw IoError(strf("serve socket: socket() failed: %s",
                       std::strerror(errno)));
  }
  // A previous daemon that was SIGKILLed leaves its socket file behind;
  // binding requires the name to be free. (Two live daemons on one path
  // is an operator error this cannot detect — the second silently steals
  // the name, exactly as with pid files.)
  std::filesystem::remove(socket_path_);
  sockaddr_un addr = make_addr(socket_path_);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError(strf("serve socket: cannot bind %s: %s",
                       socket_path_.string().c_str(), std::strerror(err)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError(strf("serve socket: listen on %s failed: %s",
                       socket_path_.string().c_str(), std::strerror(err)));
  }
}

SocketServer::~SocketServer() {
  stop_.store(true);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
  std::filesystem::remove(socket_path_);
}

void SocketServer::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = connections_.erase(it);
      reaped_.fetch_add(1);
    } else {
      ++it;
    }
  }
}

void SocketServer::run() {
  MEGH_LOG_INFO("megh_serve: listening on " + socket_path_.string());
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw IoError(strf("serve socket: poll failed: %s",
                         std::strerror(errno)));
    }
    if (ready == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (stop_.load()) break;
      throw IoError(strf("serve socket: accept failed: %s",
                         std::strerror(errno)));
    }
    if (draining_.load()) {
      // Draining: refuse new work but keep serving connections accepted
      // before the drain.
      ::close(fd);
      continue;
    }
    // Join connections that already finished so a long-lived daemon with
    // many short-lived clients doesn't accumulate exited threads.
    reap_finished();
    Connection conn;
    conn.done = std::make_unique<std::atomic<bool>>(false);
    // The flag lives on the heap behind the unique_ptr, so its address
    // survives both the vector growing and the Connection being moved.
    std::atomic<bool>* done = conn.done.get();
    conn.thread =
        std::thread([this, fd, done] { serve_connection(fd, *done); });
    connections_.push_back(std::move(conn));
  }
  // Remove the socket as soon as the accept loop exits so a caller that
  // joins run() sees a clean filesystem even before the listener is
  // destroyed; the destructor's remove is then a no-op.
  std::filesystem::remove(socket_path_);
}

void SocketServer::serve_connection(int fd, std::atomic<bool>& done) {
  std::vector<std::uint8_t> payload;
  MsgType type;
  try {
    while (read_frame(fd, type, payload)) {
      const std::vector<std::uint8_t> response = server_.handle(type, payload);
      write_frame(fd, type, response);
      if (type == MsgType::kShutdown) {
        stop_.store(true);
        break;
      }
      if (type == MsgType::kDrain) draining_.store(true);
    }
  } catch (const std::exception& e) {
    // A broken connection only loses that client; the daemon (and every
    // journaled request) survives.
    MEGH_LOG_WARN(strf("megh_serve: connection error: %s", e.what()));
  }
  ::close(fd);
  done.store(true);  // last: the accept loop may join-and-erase from here on
}

SocketTransport::SocketTransport(const std::filesystem::path& socket_path,
                                 int connect_timeout_ms) {
  const sockaddr_un addr = make_addr(socket_path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms);
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      throw IoError(strf("serve socket: socket() failed: %s",
                         std::strerror(errno)));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return;
    }
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    // The daemon may still be starting: the socket file is not there yet
    // (ENOENT) or exists but nobody listens (ECONNREFUSED). It listens a
    // few ms after spawn, so a short retry period keeps the wait short.
    const bool retryable = err == ENOENT || err == ECONNREFUSED;
    if (!retryable || std::chrono::steady_clock::now() >= deadline) {
      throw IoError(strf("serve socket: cannot connect to %s: %s",
                         socket_path.string().c_str(), std::strerror(err)));
    }
    ::usleep(1000);
  }
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::uint8_t> SocketTransport::roundtrip(
    MsgType type, std::span<const std::uint8_t> payload) {
  write_frame(fd_, type, payload);
  MsgType response_type;
  if (!read_frame(fd_, response_type, response_)) {
    throw IoError(strf("serve socket: daemon closed the connection before "
                       "answering %s",
                       msg_type_name(type)));
  }
  if (response_type != type) {
    throw IoError(strf("serve socket: response type %s does not match "
                       "request %s",
                       msg_type_name(response_type), msg_type_name(type)));
  }
  return unwrap_response(type, response_);
}

}  // namespace megh::serve
