#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "api/backends.h"
#include "api/codec.h"
#include "common/hash.h"
#include "obs/prometheus.h"
#include "server/wire.h"

namespace ocasta {

namespace {

// Runs before the engine is constructed: requesting a Prometheus listener
// without supplying a registry implies one (the listener would have nothing
// to serve otherwise, and the engine needs the registry at construction).
ServerOptions NormalizeOptions(ServerOptions options) {
  if (options.metrics == nullptr && options.metrics_port != 0) {
    options.metrics = std::make_shared<obs::MetricsRegistry>();
  }
  if (options.acks != "leader" && options.acks != "quorum") {
    throw Error("unknown acks level: " + options.acks + " (expected leader|quorum)");
  }
  if (!options.follow_host.empty() && options.data_dir.empty()) {
    throw Error("--follow requires --data-dir (a follower replicates the leader's log to disk)");
  }
  if (options.follower_id.empty()) options.follower_id = "follower@" + options.data_dir;
  if (options.acks == "quorum" && !options.data_dir.empty()) {
    // A quorum-gated mutation BLOCKS its event-loop worker until followers
    // ack — with one worker the followers' REPLICATE pulls could never be
    // dispatched and every gated write would time out. Keep at least one
    // worker free for the replication stream; deployments should size
    // --io-threads past their expected concurrent mutators (see
    // docs/REPLICATION.md).
    options.io_threads = std::max<size_t>(options.io_threads == 0 ? 8 : options.io_threads, 2);
  }
  return options;
}

bool IsFollowerMode(const ServerOptions& options) { return !options.follow_host.empty(); }

replica::FollowerOptions FollowerOptionsFor(const ServerOptions& options) {
  replica::FollowerOptions fopts;
  fopts.leader_host = options.follow_host;
  fopts.leader_port = options.follow_port;
  fopts.follower_id = options.follower_id;
  return fopts;
}

// The daemon always runs the sharded engine; a data_dir wraps it in the
// durable decorator via the same factory the CLI uses.
std::unique_ptr<api::Engine> MakeServerEngine(const ServerOptions& options,
                                              replica::ReplicationHub* hub) {
  api::BackendOptions backend;
  backend.backend = "sharded";
  backend.num_shards = options.num_shards;
  backend.cluster_window_seconds = options.cluster_window_seconds;
  backend.data_dir = options.data_dir;
  backend.fsync = options.fsync;
  backend.checkpoint_interval_seconds = options.checkpoint_interval_seconds;
  backend.metrics = options.metrics.get();
  if (hub != nullptr && options.acks == "quorum") {
    // The quorum commit gate: the engine withholds a mutation's ack until
    // enough followers cover its LSN. Followers never gate — their
    // "mutations" arrive via ApplyReplicated, which bypasses Apply (a
    // promoted follower starts gating only because its own acks option
    // said so).
    backend.commit_gate = [hub](uint64_t lsn) { hub->WaitQuorum(lsn); };
  }
  return api::MakeEngine(backend);
}

size_t ResolveIoThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  // One loop handles hundreds of connections; more than 8 loops only helps
  // when the engine itself scales past that.
  return std::clamp<size_t>(hw, 1, 8);
}

}  // namespace

TtkvServer::TtkvServer(ServerOptions options) : options_(NormalizeOptions(std::move(options))) {
  if (IsFollowerMode(options_)) {
    // Before the engine exists: decide whether the local dir can catch up
    // from the leader's log, reseeding it from the leader's snapshot when
    // not. Normal DurableEngine recovery below then loads that state.
    replica::BootstrapFromLeader(options_.data_dir, FollowerOptionsFor(options_));
  }
  if (!options_.data_dir.empty()) {
    replica::HubOptions hub;
    hub.quorum_followers = options_.quorum_followers;
    hub.ack_timeout_seconds = options_.quorum_timeout_seconds;
    hub.metrics = options_.metrics.get();
    hub_ = std::make_unique<replica::ReplicationHub>(hub);
  }
  engine_ = MakeServerEngine(options_, hub_.get());
  durable_ = dynamic_cast<persist::DurableEngine*>(engine_.get());
  if (IsFollowerMode(options_)) {
    is_follower_.store(true, std::memory_order_release);
    follower_ = std::make_unique<replica::Follower>(*durable_, FollowerOptionsFor(options_));
  }
  if (options_.slow_op_micros > 0) {
    slow_log_ = std::make_unique<obs::SlowOpLog>(options_.slow_op_micros,
                                                 options_.slow_op_log_per_sec);
  }
  if (obs::MetricsRegistry* m = options_.metrics.get()) {
    loop_metrics_.frame_ns = &m->GetHistogram("ocasta_loop_frame_ns");
    loop_metrics_.dispatch_width = &m->GetHistogram("ocasta_loop_dispatch_width");
    loop_metrics_.bytes_in = &m->GetCounter("ocasta_loop_bytes_in_total");
    loop_metrics_.bytes_out = &m->GetCounter("ocasta_loop_bytes_out_total");
    loop_metrics_.backpressure_pauses =
        &m->GetCounter("ocasta_loop_backpressure_pauses_total");
    loop_metrics_.conns_live = &m->GetGauge("ocasta_loop_connections_live");
    ctr_connections_ = &m->GetCounter("ocasta_server_connections_total");
    ctr_overload_ = &m->GetCounter("ocasta_server_overload_rejections_total");
    conns_live_ = loop_metrics_.conns_live;
    conns_peak_ = &m->GetGauge("ocasta_loop_connections_peak");
    if (slow_log_ != nullptr) {
      slow_logged_ = &m->GetGauge("ocasta_slow_ops_logged");
      slow_suppressed_ = &m->GetGauge("ocasta_slow_ops_suppressed");
    }
  }
}

TtkvServer::~TtkvServer() { Stop(); }

void TtkvServer::Start() {
  if (started_.exchange(true)) throw Error("TtkvServer already started");
  // Backlog sized for connection storms (bench --connections opens hundreds
  // at once); the kernel clamps to net.core.somaxconn.
  const int backlog = options_.max_conns == 0
                          ? 1024
                          : static_cast<int>(std::min<size_t>(options_.max_conns, 4096));
  listen_fd_ = ListenLoopback(options_.port, backlog);
  port_ = BoundPort(listen_fd_);

  EventLoopOptions loop_options;
  loop_options.idle_timeout_seconds = options_.idle_timeout_seconds;
  loop_options.metrics = loop_metrics_;
  loop_options.slow_log = slow_log_.get();
  if (hub_ != nullptr && options_.acks == "quorum") {
    // Quorum-gated mutations BLOCK waiting for follower acks, and the acks
    // arrive as REPLICATE requests that may share the same event loop —
    // dispatched inline, the gate would starve its own acks. Route anything
    // that might hit the gate to a side thread so only its connection
    // parks. MightMutate over-approximates (any BATCH, a mutation bound
    // for NOT_LEADER rejection); those cost one thread hop, not liveness.
    loop_options.offload = [](std::string_view request) { return api::MightMutate(request); };
  }
  const size_t io_threads = ResolveIoThreads(options_.io_threads);
  loops_.reserve(io_threads);
  for (size_t i = 0; i < io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        loop_options,
        [this](std::string_view request, std::string* reply) {
          return HandleRequest(request, reply);
        },
        [this] { RequestStop(); }, &open_conns_));
  }
  for (const auto& loop : loops_) loop->Start();
  if (options_.metrics_port != 0) {
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        options_.metrics_port, [this] {
          RefreshExportGauges();
          return obs::WritePrometheusText(options_.metrics->Snapshot());
        });
    metrics_http_->Start();
  }
  accept_thread_ = std::thread(&TtkvServer::AcceptLoop, this);
  if (follower_ != nullptr) follower_->Start();
}

uint16_t TtkvServer::metrics_port() const {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

void TtkvServer::RefreshExportGauges() {
  if (slow_log_ == nullptr || slow_logged_ == nullptr) return;
  slow_logged_->Set(static_cast<int64_t>(slow_log_->logged()));
  slow_suppressed_->Set(static_cast<int64_t>(slow_log_->suppressed()));
}

void TtkvServer::RequestStop() {
  if (stopping_.exchange(true)) return;
  // Release quorum gates first: a mutation parked on WaitQuorum would
  // otherwise hold its offload worker (and the client) for the full ack
  // timeout while the rest of the daemon is tearing down.
  if (hub_ != nullptr) hub_->Abort();
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (const auto& loop : loops_) loop->RequestStop();
}

void TtkvServer::Stop() {
  if (!started_.load()) return;
  RequestStop();
  Wait();
}

void TtkvServer::Wait() {
  {
    const lockdep::guard lock(join_mu_);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (const auto& loop : loops_) loop->Join();
  }
  // After the joins: the accept join only returns once stop was requested,
  // so a Wait()-ing daemon keeps tailing its leader until then. The
  // follower stops outside join_mu_ because its mutex ranks below it;
  // Stop() is safe to race (PROMOTE calls it too, latecomers return).
  if (follower_ != nullptr) follower_->Stop();
  const lockdep::guard lock(join_mu_);
  if (metrics_http_ != nullptr) metrics_http_->Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TtkvServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient resource exhaustion (fd limits, socket buffers) must not
      // kill a long-running daemon: back off briefly and keep accepting.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // Listening socket gone or fatal error: stop accepting.
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    // Replies are small frames; without NODELAY, Nagle + delayed ACK stalls
    // pipelined batches by tens of milliseconds.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    if (options_.max_conns != 0 &&
        open_conns_.load(std::memory_order_relaxed) >=
            static_cast<int64_t>(options_.max_conns)) {
      // Graceful overload: tell the client why before closing, instead of a
      // silent RST. The socket is fresh (empty send buffer), so this small
      // blocking send cannot stall the acceptor.
      overload_rejections_.fetch_add(1, std::memory_order_relaxed);
      if (ctr_overload_ != nullptr) ctr_overload_->Inc();
      try {
        SendFrame(fd, api::EncodeResult(api::ErrorResult{
                          "server over --max-conns connection limit; retry later"}));
      } catch (const Error&) {
        // Client vanished mid-rejection; nothing to salvage.
      }
      ::shutdown(fd, SHUT_WR);  // Push the reply out before the close.
      // Drain whatever the client already sent (a real client HELLOs right
      // after connect): close()ing with unread bytes in the receive queue
      // makes Linux send RST, which can discard the reply we just queued.
      // Bounded so a hostile client cannot stall the acceptor.
      pollfd pfd{fd, POLLIN, 0};
      for (int spins = 0; spins < 4 && ::poll(&pfd, 1, 50) > 0; ++spins) {
        char sink[4096];
        const ssize_t drained = ::recv(fd, sink, sizeof(sink), 0);
        if (drained <= 0) break;  // EOF (client saw our FIN) or error.
      }
      ::close(fd);
      continue;
    }

    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      ::close(fd);
      continue;
    }
    connections_.fetch_add(1);
    const int64_t now_open = open_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ctr_connections_ != nullptr) {
      ctr_connections_->Inc();
      conns_live_->Add(1);
      conns_peak_->SetMax(now_open);
    }
    loops_[next_loop_]->AddConnection(fd);
    next_loop_ = (next_loop_ + 1) % loops_.size();
  }
}

uint64_t TtkvServer::frames_dispatched() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->frames_dispatched();
  return total;
}

uint64_t TtkvServer::loop_wakeups() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->wakeups();
  return total;
}

uint64_t TtkvServer::idle_closed() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->idle_closed();
  return total;
}

api::Result TtkvServer::ServeReplicate(const api::ReplicateCmd& cmd) {
  if (durable_ == nullptr) {
    return api::ErrorResult{"REPLICATE requires a durable daemon (--data-dir)"};
  }
  persist::Wal& wal = durable_->wal();
  const uint64_t leader_lsn = wal.last_lsn();
  if (hub_ != nullptr) {
    // since_lsn doubles as the follower's durability ack. Clamp to our own
    // log: a cursor from a divergent timeline must not inflate quorum.
    hub_->OnFollowerAck(cmd.follower_id, std::min(cmd.since_lsn, leader_lsn), leader_lsn);
  }
  api::ReplicateResult res;
  res.leader_lsn = leader_lsn;
  res.follower = is_follower_.load(std::memory_order_acquire);
  if (cmd.max_records == 0) return res;  // Status probe (ocasta_cli replstat).

  // Cap the reply: a cold follower catches up over many pulls, each
  // bounded in records and bytes so one REPLICATE cannot monopolize a
  // worker or balloon a frame.
  constexpr size_t kMaxReplyBytes = 4u << 20;
  const size_t max_records = std::min<size_t>(cmd.max_records, 65536);
  persist::WalTail tail = wal.ReadFrom(cmd.since_lsn + 1, max_records, kMaxReplyBytes);
  if (tail.reachable) {
    res.records.reserve(tail.records.size());
    for (persist::WalRecord& r : tail.records) {
      res.records.push_back(api::ReplicateResult::Entry{r.lsn, std::move(r.payload)});
    }
    return res;
  }
  // The log no longer reaches the cursor (checkpoint truncation, or the
  // follower is from another timeline): bootstrap it with a snapshot.
  persist::DurableEngine::SnapshotImage image = durable_->CaptureSnapshot();
  if (image.lsn == 0) {
    return api::ErrorResult{"follower cursor " + std::to_string(cmd.since_lsn) +
                            " is ahead of an empty leader log; wipe the follower data dir"};
  }
  res.leader_lsn = std::max(leader_lsn, image.lsn);
  res.snapshot_lsn = image.lsn;
  res.snapshot = std::move(image.bytes);
  return res;
}

api::Result TtkvServer::Promote() {
  if (!is_follower_.load(std::memory_order_acquire)) {
    // Idempotent: a failover script that retries PROMOTE after a dropped
    // reply must not see its (already effective) promotion fail.
    return api::OkResult{};
  }
  // Stop pulling first, then flip the role: after the flip every worker
  // sees a leader-capable engine whose log ends exactly where the dead
  // leader's shipped history ended.
  follower_->Stop();
  is_follower_.store(false, std::memory_order_release);
  return api::OkResult{};
}

bool TtkvServer::HandleRequest(std::string_view request, std::string* reply) {
  // Thin decode → Apply → encode shim: the codec owns every byte layout and
  // the engine owns every operation. The only server-side concerns are
  // HELLO version negotiation and recognizing a top-level SHUTDOWN.
  bool shutdown_requested = false;
  try {
    if (api::IsHelloRequest(request)) {
      if (obs::OpTrace::Current().active) obs::OpTrace::Current().op = "HELLO";
      const uint32_t client_version = api::DecodeHello(request);
      if (client_version < api::kMinProtocolVersion) {
        *reply = api::EncodeResult(api::ErrorResult{
            "unsupported protocol version " + std::to_string(client_version) +
            " (daemon speaks " + std::to_string(api::kMinProtocolVersion) + ".." +
            std::to_string(api::kProtocolVersion) + ")"});
        return false;
      }
      *reply = api::EncodeHelloReply(std::min(client_version, api::kProtocolVersion));
      return false;
    }
    const api::Command cmd = api::DecodeCommand(request);
    shutdown_requested = std::holds_alternative<api::ShutdownCmd>(cmd.op);
    if (std::holds_alternative<api::MetricsCmd>(cmd.op)) RefreshExportGauges();
    // Replication control plane (docs/REPLICATION.md): handled here, not in
    // the engine — the stream is served off the WAL and the role flip is
    // server state.
    if (const auto* rep = std::get_if<api::ReplicateCmd>(&cmd.op)) {
      if (obs::OpTrace::Current().active) obs::OpTrace::Current().op = "REPLICATE";
      *reply = api::EncodeResult(ServeReplicate(*rep));
      return false;
    }
    if (std::holds_alternative<api::PromoteCmd>(cmd.op)) {
      *reply = api::EncodeResult(Promote());
      return false;
    }
    if (is_follower_.load(std::memory_order_acquire) && api::IsMutating(cmd)) {
      // Typed redirect, not an error string: clients fail over on it.
      *reply = api::EncodeResult(
          api::NotLeaderResult{options_.follow_host, options_.follow_port});
      return false;
    }
    obs::OpTrace& trace = obs::OpTrace::Current();
    if (trace.active) {
      // Identify the op for the slow-op line before dispatch; the engine
      // and WAL fill in their timing pieces underneath.
      trace.op = api::CommandName(cmd);
      if (const std::string* key = api::CommandKey(cmd)) {
        trace.has_key = true;
        trace.key_hash = Fnv1a(*key);
        trace.shard = static_cast<uint32_t>(trace.key_hash % options_.num_shards);
      }
      const auto t0 = std::chrono::steady_clock::now();
      *reply = api::EncodeResult(engine_->Apply(cmd));
      const double engine_us = std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
      // apply_us is engine time excluding the WAL's share (append + group-
      // commit wait), which DurableEngine accumulated into wal_us.
      trace.apply_us = std::max(0.0, engine_us - trace.wal_us);
    } else {
      *reply = api::EncodeResult(engine_->Apply(cmd));
    }
  } catch (const Error& e) {
    shutdown_requested = false;
    *reply = api::EncodeResult(api::ErrorResult{e.what()});
  }
  return shutdown_requested;
}

}  // namespace ocasta
