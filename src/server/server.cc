#include "server/server.h"

#include <algorithm>
#include <chrono>

#include "bql/bql.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace genalg::server {

namespace {

using std::chrono::steady_clock;

struct ServerMetrics {
  obs::Counter* connections;
  obs::Counter* queries;
  obs::Counter* queries_rejected;
  obs::Counter* queries_timed_out;
  obs::Counter* queries_cancelled;
  obs::Counter* queries_failed;
  obs::Counter* queries_refused_draining;
  obs::Counter* rows_shipped;
  obs::Counter* pages_shipped;
  obs::Counter* malformed_frames;
  obs::Gauge* sessions_active;
  obs::Histogram* query_latency_us;
};

const ServerMetrics& Metrics() {
  static const ServerMetrics m = {
      obs::Registry::Global().GetCounter("server.connections"),
      obs::Registry::Global().GetCounter("server.queries"),
      obs::Registry::Global().GetCounter("server.queries_rejected"),
      obs::Registry::Global().GetCounter("server.queries_timed_out"),
      obs::Registry::Global().GetCounter("server.queries_cancelled"),
      obs::Registry::Global().GetCounter("server.queries_failed"),
      obs::Registry::Global().GetCounter("server.queries_refused_draining"),
      obs::Registry::Global().GetCounter("server.rows_shipped"),
      obs::Registry::Global().GetCounter("server.pages_shipped"),
      obs::Registry::Global().GetCounter("server.malformed_frames"),
      obs::Registry::Global().GetGauge("server.sessions_active"),
      obs::Registry::Global().GetHistogram("server.query_latency_us"),
  };
  return m;
}

}  // namespace

/// One connected client. The reader thread owns all receives; sends are
/// serialized on write_mutex because the reader (pong, errors) and a pool
/// worker (result pages) write concurrently.
struct GenAlgServer::Session {
  uint64_t id = 0;
  net::TcpSocket socket;
  std::thread reader;
  std::mutex write_mutex;
  std::mutex cancel_mutex;
  std::set<uint64_t> cancelled;      ///< Query ids the client abandoned.
  std::atomic<bool> open{true};      ///< Cleared when the reader exits.
  std::atomic<bool> handshaken{false};

  bool IsCancelled(uint64_t query_id) {
    std::lock_guard<std::mutex> lock(cancel_mutex);
    return cancelled.count(query_id) != 0;
  }
  void MarkCancelled(uint64_t query_id) {
    std::lock_guard<std::mutex> lock(cancel_mutex);
    cancelled.insert(query_id);
  }

  Status Send(net::FrameType type, const std::vector<uint8_t>& body) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return net::WriteFrame(&socket, type, body);
  }
};

GenAlgServer::GenAlgServer(udb::Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.admission_queue_depth == 0) {
    options_.admission_queue_depth = 1;
  }
  if (options_.max_page_rows == 0) options_.max_page_rows = 1;
}

GenAlgServer::~GenAlgServer() { Shutdown(); }

Status GenAlgServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  GENALG_RETURN_IF_ERROR(listener_.Listen(options_.port));
  // Bounded pool = the admission queue. TrySubmit's rejection IS the
  // overload signal; nothing ever waits unboundedly for a worker.
  pool_ = std::make_unique<ThreadPool>(
      options_.worker_threads == 0 ? ThreadPool::DefaultThreadCount()
                                   : options_.worker_threads,
      options_.admission_queue_depth);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void GenAlgServer::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) return;  // Interrupted: shutdown.
    Metrics().connections->Increment();

    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      // Reap sessions whose reader already exited, so closed
      // connections free their slots without a dedicated reaper thread.
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (!it->second->open.load(std::memory_order_acquire)) {
          if (it->second->reader.joinable()) it->second->reader.join();
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      if (sessions_.size() < options_.max_sessions && !draining_.load()) {
        session = std::make_shared<Session>();
        session->id = next_session_id_++;
        session->socket = std::move(*accepted);
        sessions_[session->id] = session;
      }
    }
    if (session == nullptr) {
      // Table full (or draining): refuse politely and move on. The
      // rejected socket never becomes a session.
      net::ErrorMsg refusal;
      refusal.code = draining_.load() ? net::ErrorCode::kShuttingDown
                                      : net::ErrorCode::kSessionLimit;
      refusal.message = "session table full";
      net::TcpSocket socket = std::move(*accepted);
      (void)net::WriteFrame(&socket, net::FrameType::kError,
                            refusal.Encode());
      continue;
    }
    Metrics().sessions_active->Add(1);
    session->reader = std::thread(
        [this, session] { SessionLoop(session); });
  }
}

void GenAlgServer::SessionLoop(std::shared_ptr<Session> session) {
  // ------------------------------------------------ Handshake (5 s cap).
  (void)session->socket.SetRecvTimeout(5000);
  net::Frame frame;
  Status read = net::ReadFrame(&session->socket, &frame);
  bool proceed = false;
  if (read.ok() && frame.type == net::FrameType::kHello) {
    auto hello = net::HelloMsg::Decode(frame.body);
    if (hello.ok() && hello->min_version <= net::kProtocolVersionMax &&
        hello->max_version >= net::kProtocolVersionMin) {
      net::HelloAckMsg ack;
      ack.version =
          std::min(hello->max_version, net::kProtocolVersionMax);
      ack.server_name = options_.server_name;
      proceed = session->Send(net::FrameType::kHelloAck, ack.Encode()).ok();
      session->handshaken.store(true, std::memory_order_release);
    } else {
      SendError(session, 0,
                hello.ok() ? net::ErrorCode::kVersion
                           : net::ErrorCode::kMalformed,
                hello.ok() ? "no protocol version in common"
                           : hello.status().message());
    }
  } else if (read.IsCorruption()) {
    Metrics().malformed_frames->Increment();
    SendError(session, 0, net::ErrorCode::kMalformed, read.message());
  }
  (void)session->socket.SetRecvTimeout(0);

  // ------------------------------------------------------- Frame loop.
  while (proceed) {
    Status status = net::ReadFrame(&session->socket, &frame);
    if (!status.ok()) {
      if (status.IsCorruption()) {
        // Malformed wire data: tell the client (best effort) and close —
        // after a framing error the stream offset can't be trusted.
        Metrics().malformed_frames->Increment();
        SendError(session, 0, net::ErrorCode::kMalformed,
                  status.message());
      }
      break;  // Clean close, I/O error, or the malformed case above.
    }
    switch (frame.type) {
      case net::FrameType::kQuery: {
        auto query = net::QueryMsg::Decode(frame.body);
        if (!query.ok()) {
          Metrics().malformed_frames->Increment();
          SendError(session, 0, net::ErrorCode::kMalformed,
                    query.status().message());
          break;  // Body decode failure: session still framed correctly.
        }
        AdmitQuery(session, std::move(*query));
        break;
      }
      case net::FrameType::kCancel: {
        auto cancel = net::CancelMsg::Decode(frame.body);
        if (cancel.ok()) session->MarkCancelled(cancel->query_id);
        break;
      }
      case net::FrameType::kPing: {
        auto ping = net::PingMsg::Decode(frame.body);
        if (ping.ok()) {
          (void)session->Send(net::FrameType::kPong, ping->Encode());
        }
        break;
      }
      case net::FrameType::kGoodbye:
        proceed = false;
        break;
      default:
        // A client must not send server-role frames (hello_ack, pages,
        // errors) or re-hello; protocol violation.
        Metrics().malformed_frames->Increment();
        SendError(session, 0, net::ErrorCode::kMalformed,
                  "unexpected frame type");
        proceed = false;
        break;
    }
  }

  session->socket.Interrupt();
  Metrics().sessions_active->Sub(1);
  session->open.store(false, std::memory_order_release);
  // The slot is reaped (thread joined, entry erased) by the acceptor on
  // the next accept, or by Shutdown.
}

void GenAlgServer::AdmitQuery(const std::shared_ptr<Session>& session,
                              net::QueryMsg query) {
  Metrics().queries->Increment();
  if (draining_.load(std::memory_order_acquire)) {
    Metrics().queries_refused_draining->Increment();
    SendError(session, query.query_id, net::ErrorCode::kShuttingDown,
              "server is draining");
    return;
  }
  auto admitted_at = steady_clock::now();
  uint32_t deadline_ms = query.deadline_ms == 0
                             ? options_.default_deadline_ms
                             : query.deadline_ms;
  auto deadline = admitted_at + std::chrono::milliseconds(deadline_ms);
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    ++inflight_;
  }
  uint64_t query_id = query.query_id;
  bool accepted = pool_->TrySubmit(
      [this, session, query = std::move(query), admitted_at, deadline] {
        ExecuteQuery(session, query, admitted_at, deadline);
        {
          std::lock_guard<std::mutex> lock(inflight_mutex_);
          --inflight_;
        }
        drained_.notify_all();
      });
  if (!accepted) {
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      --inflight_;
    }
    drained_.notify_all();
    Metrics().queries_rejected->Increment();
    SendError(session, query_id, net::ErrorCode::kOverloaded,
              "admission queue full (depth " +
                  std::to_string(options_.admission_queue_depth) + ")");
  }
}

void GenAlgServer::ExecuteQuery(
    const std::shared_ptr<Session>& session, const net::QueryMsg& query,
    std::chrono::steady_clock::time_point admitted_at,
    std::chrono::steady_clock::time_point deadline) {
  obs::Span span("server.query");
  span.SetAttr("bql", query.bql);
  if (session->IsCancelled(query.query_id) ||
      !session->open.load(std::memory_order_acquire)) {
    Metrics().queries_cancelled->Increment();
    SendError(session, query.query_id, net::ErrorCode::kCancelled,
              "cancelled while queued");
    return;
  }
  if (steady_clock::now() >= deadline) {
    Metrics().queries_timed_out->Increment();
    SendError(session, query.query_id, net::ErrorCode::kTimeout,
              "deadline elapsed while queued");
    return;
  }

  Result<udb::QueryResult> result = [&] {
    // The read side of the database gate: any number of served queries
    // run concurrently; the ETL refresh (write side) excludes them all.
    RwGate::ReadLease read_lease = db_->gate().Read();
    return bql::RunBql(db_, query.bql);
  }();

  if (!result.ok()) {
    Metrics().queries_failed->Increment();
    SendError(session, query.query_id, net::ErrorCode::kQueryFailed,
              result.status().ToString());
    return;
  }

  // ------------------------------------------------- Stream the pages.
  const uint32_t page_rows =
      std::min(std::max<uint32_t>(query.page_rows, 1),
               options_.max_page_rows);
  const size_t total = result->rows.size();
  span.SetAttr("rows", static_cast<uint64_t>(total));
  size_t offset = 0;
  uint32_t page_index = 0;
  uint64_t shipped = 0;
  do {
    if (session->IsCancelled(query.query_id)) {
      Metrics().queries_cancelled->Increment();
      SendError(session, query.query_id, net::ErrorCode::kCancelled,
                "cancelled mid-stream after " + std::to_string(shipped) +
                    " rows");
      return;
    }
    if (steady_clock::now() >= deadline) {
      Metrics().queries_timed_out->Increment();
      SendError(session, query.query_id, net::ErrorCode::kTimeout,
                "deadline elapsed mid-stream");
      return;
    }
    net::ResultPageMsg page;
    page.query_id = query.query_id;
    page.page_index = page_index;
    size_t end = std::min(total, offset + page_rows);
    page.rows.reserve(end - offset);
    for (size_t i = offset; i < end; ++i) {
      // Rows leave the materialized result as they ship; the server
      // never holds result + wire copies of the full set at once.
      page.rows.push_back(std::move(result->rows[i]));
    }
    offset = end;
    page.last = offset >= total;
    if (page_index == 0) page.columns = result->columns;
    if (page.last) page.message = result->message;
    if (!session->Send(net::FrameType::kResultPage, page.Encode()).ok()) {
      return;  // Peer went away; the reader loop will notice too.
    }
    Metrics().pages_shipped->Increment();
    shipped += page.rows.size();
    ++page_index;
  } while (offset < total);

  Metrics().rows_shipped->Add(shipped);
  Metrics().query_latency_us->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          steady_clock::now() - admitted_at)
          .count()));
}

void GenAlgServer::SendError(const std::shared_ptr<Session>& session,
                             uint64_t query_id, net::ErrorCode code,
                             const std::string& message) {
  net::ErrorMsg error;
  error.query_id = query_id;
  error.code = code;
  error.message = message;
  (void)session->Send(net::FrameType::kError, error.Encode());
}

size_t GenAlgServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  size_t open = 0;
  for (const auto& [id, session] : sessions_) {
    if (session->open.load(std::memory_order_acquire)) ++open;
  }
  return open;
}

size_t GenAlgServer::inflight_queries() const {
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(inflight_mutex_));
  return inflight_;
}

void GenAlgServer::WaitForDrain() {
  std::unique_lock<std::mutex> lock(inflight_mutex_);
  drained_.wait(lock, [this] { return inflight_ == 0; });
}

void GenAlgServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop admitting; in-flight queries keep running.
  draining_.store(true, std::memory_order_release);

  // 2. Drain: every admitted query finishes and its pages ship.
  WaitForDrain();

  // 3. Stop the acceptor.
  listener_.Interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // 4. Say goodbye, unblock every reader, join, and clear the table.
  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (auto& [id, session] : sessions) {
    if (session->open.load(std::memory_order_acquire) &&
        session->handshaken.load(std::memory_order_acquire)) {
      (void)session->Send(net::FrameType::kGoodbye, {});
    }
    session->socket.Interrupt();
  }
  for (auto& [id, session] : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }

  // 5. Retire the executor pool (drained above, so this is instant).
  pool_.reset();
}

}  // namespace genalg::server
