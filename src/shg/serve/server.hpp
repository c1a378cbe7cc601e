// Transport layer of the resident customization service: reads
// line-delimited JSON requests from a byte stream (stdin, a TCP
// connection, or a unix-domain socket), dispatches them across a
// persistent worker pool, and writes one response line per request.
// Framework-free: POSIX sockets and the WorkerPool of common/parallel.hpp.
//
// Dispatch: a reader thread-of-control parses each line into a Request and
// queues it; pool workers pop requests FIFO and execute them against the
// shared Service (whose session tiers are sharded + locked). Responses are
// written whole-line-at-a-time under one mutex as they complete, so lines
// never interleave — but they may be ORDERED differently from the
// requests; clients correlate by id.
//
// Coalescing: when a worker pops a screen request, it also drains every
// queued screen request sharing the same architecture fingerprint and
// serves the whole group through ONE screen_batch_cached call (misses
// screen together, sharing each skip set's routed axis). Each request still
// gets its own response, byte-identical in "result" to its solo run.
//
// Shutdown: a "shutdown" op stops the reader after in-flight requests
// drain (its own response included); EOF on the stream ends that stream
// the same way. Socket servers then stop accepting. Malformed lines are
// answered with ok:false replies and never terminate the process.
#pragma once

#include <cstddef>
#include <string>

#include "shg/serve/service.hpp"

namespace shg::serve {

struct ServerOptions {
  /// Worker pool size; 0 uses max_threads().
  int workers = 0;
  /// The shared Service's session (sharded, so the pool may share it).
  customize::SessionOptions session = service_session_defaults();
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Service& service() { return service_; }

  /// Serves one open stream (requests from in_fd, responses to out_fd)
  /// until EOF or a shutdown op; returns the number of requests served.
  /// Does not close the fds.
  std::size_t serve_stream(int in_fd, int out_fd);

  /// Serves stdin/stdout until EOF or shutdown. Returns a process exit
  /// code (0 on clean shutdown/EOF).
  int serve_stdio();

  /// Listens on 127.0.0.1:`port` (0 picks an ephemeral port), announces
  /// "listening on 127.0.0.1:PORT" on stdout, and serves connections
  /// sequentially until a shutdown op. Returns a process exit code.
  int serve_tcp(int port);

  /// Like serve_tcp over a unix-domain socket at `path` (replaced if it
  /// exists, removed on exit); announces "listening on PATH".
  int serve_unix(const std::string& path);

 private:
  ServerOptions options_;
  Service service_;
};

}  // namespace shg::serve
