#ifndef GENALG_SERVER_SERVER_H_
#define GENALG_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/result.h"
#include "base/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "udb/database.h"

namespace genalg::server {

/// Tuning knobs for GenAlgServer. The defaults suit the tests and the
/// localhost demo; the bench sweeps them.
struct ServerOptions {
  uint16_t port = 0;             ///< 0 = ephemeral (read back via port()).
  std::string server_name = "genalg-server";

  /// Executor pool: worker threads running admitted queries. 0 =
  /// ThreadPool::DefaultThreadCount().
  size_t worker_threads = 0;

  /// Admission control: at most this many queries may wait for a worker.
  /// A query arriving with the queue full is rejected immediately with
  /// error{overloaded} — bounded latency instead of unbounded queueing.
  size_t admission_queue_depth = 64;

  /// Session table capacity; further connections get error{session_limit}.
  size_t max_sessions = 128;

  /// Applied when a query carries deadline_ms == 0.
  uint32_t default_deadline_ms = 30'000;

  /// Hard cap on rows per result page (client asks, server clamps).
  uint32_t max_page_rows = 4096;
};

/// The BQL network service of the paper's Figure 3 deployment: biologists
/// sit *outside* the system and submit BQL to a shared server over the
/// net/ wire protocol. One acceptor thread owns the listener; each
/// session gets a cheap blocking reader thread; admitted queries execute
/// on a bounded ThreadPool under the database's reader–writer gate (many
/// concurrent reads; the ETL refresh takes the write side), and results
/// stream back as pages.
///
/// Lifecycle: construct → Start() → serve → Shutdown() (graceful: stops
/// admitting, drains in-flight queries, says goodbye, joins threads).
/// The database is borrowed and must outlive the server; the server
/// never mutates it (BQL compiles to SELECTs and runs unprivileged).
class GenAlgServer {
 public:
  GenAlgServer(udb::Database* db, ServerOptions options = {});
  ~GenAlgServer();

  GenAlgServer(const GenAlgServer&) = delete;
  GenAlgServer& operator=(const GenAlgServer&) = delete;

  /// Binds, listens, and spawns the acceptor. FailedPrecondition if
  /// already started.
  Status Start();

  /// Graceful drain, idempotent: new queries get error{shutting_down},
  /// in-flight queries finish and their pages ship, every session gets a
  /// Goodbye, then sockets close and threads join.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return listener_.port(); }

  /// Live session count (for tests: fuzz must not leak slots).
  size_t active_sessions() const;

  /// Queries currently admitted but not yet finished (queued + running).
  size_t inflight_queries() const;

 private:
  struct Session;

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<Session> session);

  /// Handles one Query frame on the session's reader thread: admission
  /// control + enqueue; the work itself runs on pool_.
  void AdmitQuery(const std::shared_ptr<Session>& session,
                  net::QueryMsg query);

  /// Runs on a pool worker: deadline/cancel checks, gated execution,
  /// page streaming.
  void ExecuteQuery(const std::shared_ptr<Session>& session,
                    const net::QueryMsg& query,
                    std::chrono::steady_clock::time_point admitted_at,
                    std::chrono::steady_clock::time_point deadline);

  void SendError(const std::shared_ptr<Session>& session, uint64_t query_id,
                 net::ErrorCode code, const std::string& message);

  /// Blocks until inflight_ == 0 (the drain barrier of Shutdown).
  void WaitForDrain();

  udb::Database* db_;
  ServerOptions options_;
  net::TcpListener listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex sessions_mutex_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  std::mutex inflight_mutex_;
  std::condition_variable drained_;
  size_t inflight_ = 0;
};

}  // namespace genalg::server

#endif  // GENALG_SERVER_SERVER_H_
