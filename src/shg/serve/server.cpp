#include "shg/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include "shg/common/parallel.hpp"

namespace shg::serve {

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone; requests still execute, replies drop
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

/// Accepts connections one at a time until a shutdown op lands (the
/// resident session is the point of this server; one stream at a time
/// keeps the transport trivial while the worker pool still parallelizes
/// the requests WITHIN a stream).
int accept_connections(Server& server, int listener) {
  while (!server.service().shutdown_requested()) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::perror("shg_server: accept");
      return 1;
    }
    server.serve_stream(conn, conn);
    ::close(conn);
  }
  return 0;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.session) {}

Server::~Server() = default;

std::size_t Server::serve_stream(int in_fd, int out_fd) {
  WorkerPool pool(options_.workers);
  std::mutex queue_mutex;
  std::deque<Request> queue;
  std::mutex out_mutex;
  std::size_t served = 0;

  const auto write_line = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    write_all(out_fd, line + "\n");
  };

  // One pool task per submitted request; tasks pop FIFO, so a task may
  // serve a different request than the one whose arrival submitted it,
  // and a coalescing task may serve several (leaving later tasks an empty
  // queue — they just return).
  const auto work = [&] {
    std::vector<Request> batch;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      if (queue.empty()) return;
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
      if (batch.front().valid && batch.front().op == Op::kScreen) {
        // Drain every queued screen on the same architecture: the group
        // screens through ONE screen_batch_cached call (misses share
        // their axis summaries), one response each.
        for (auto it = queue.begin(); it != queue.end();) {
          if (it->valid && it->op == Op::kScreen &&
              it->arch_fp == batch.front().arch_fp) {
            batch.push_back(std::move(*it));
            it = queue.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    if (batch.front().valid && batch.front().op == Op::kScreen) {
      for (const Response& r : service_.execute_screen_batch(batch)) {
        write_line(r.to_line());
      }
    } else {
      write_line(service_.execute(batch.front()).to_line());
    }
  };

  const auto enqueue = [&](const std::string& line) -> bool {
    Request request = service_.parse_request(line);
    const bool is_shutdown = request.valid && request.op == Op::kShutdown;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      queue.push_back(std::move(request));
    }
    ++served;
    pool.submit(work);
    return is_shutdown;
  };

  std::string buffer;
  char chunk[4096];
  bool stop = false;
  while (!stop) {
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (!stop) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (blank_line(line)) continue;
      // A shutdown op stops reading immediately (unread input is
      // deliberately dropped — the client asked to stop); its response is
      // still written by the drain below.
      stop = enqueue(line);
    }
    buffer.erase(0, start);
  }
  if (!stop && !blank_line(buffer)) {
    if (!buffer.empty() && buffer.back() == '\r') buffer.pop_back();
    enqueue(buffer);  // final unterminated line before EOF
  }
  pool.drain();
  return served;
}

int Server::serve_stdio() {
  serve_stream(STDIN_FILENO, STDOUT_FILENO);
  return 0;
}

int Server::serve_tcp(int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("shg_server: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::perror("shg_server: bind/listen");
    ::close(listener);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  // The announce line is the readiness handshake scripts wait for (and,
  // with port 0, the only way to learn the chosen port).
  std::printf("listening on 127.0.0.1:%d\n",
              static_cast<int>(ntohs(addr.sin_port)));
  std::fflush(stdout);
  const int code = accept_connections(*this, listener);
  ::close(listener);
  return code;
}

int Server::serve_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "shg_server: unix socket path too long: %s\n",
                 path.c_str());
    return 1;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("shg_server: socket");
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::perror("shg_server: bind/listen");
    ::close(listener);
    return 1;
  }
  std::printf("listening on %s\n", path.c_str());
  std::fflush(stdout);
  const int code = accept_connections(*this, listener);
  ::close(listener);
  ::unlink(path.c_str());
  return code;
}

}  // namespace shg::serve
