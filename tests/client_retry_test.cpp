// TtkvClient exactly-once regression suite (the retry double-apply bug).
//
// The scenario that used to double-apply: the client sends a mutation, the
// daemon APPLIES it, and the connection dies before the reply frame makes
// it back. The old client transparently reconnected and re-sent — the
// daemon applied the same PUT twice, doubling write_count and corrupting
// version history. The contract now: once a mutation's request frame has
// reached the wire, an ambiguous failure surfaces as WireError and the
// CALLER decides; only reads and mutations that provably never hit the
// wire auto-retry.
//
// A real daemon can't produce this window on demand, so these tests run a
// minimal in-process fake daemon over the real wire helpers: it speaks
// HELLO, applies frames to a real engine, and hangs up at exactly the
// scripted moment.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "api/codec.h"
#include "api/engine.h"
#include "client/ttkv_client.h"
#include "server/sharded_ttkv.h"
#include "server/wire.h"

namespace ocasta {
namespace {

// What the fake daemon does after applying a request frame.
enum class AfterApply {
  kReply,          // Normal: encode and send the result.
  kCloseNoReply,   // Apply, then hang up — the ambiguous window.
};

// One-connection-at-a-time scripted daemon. Each accepted connection
// serves HELLO, then per-frame behaviors popped from the script (the last
// behavior repeats). State accumulates in one shared engine across
// connections, exactly like a daemon that stays alive while the CLIENT
// reconnects.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::vector<AfterApply> script, uint16_t port = 0)
      : script_(std::move(script)) {
    listen_fd_ = ListenLoopback(port);
    port_ = BoundPort(listen_fd_);
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeDaemon() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    // The serve thread may be parked in Recv on a live client connection
    // (e.g. a client that caches its socket between RPCs); shut that down
    // too or the join below never returns.
    const int active = active_fd_.load();
    if (active >= 0) ::shutdown(active, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

  uint16_t port() const { return port_; }
  api::Engine& engine() { return engine_; }
  int frames_applied() const { return frames_applied_.load(); }

 private:
  void Serve() {
    while (!stopping_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      active_fd_.store(fd);
      ServeConnection(fd);
      active_fd_.store(-1);
      ::close(fd);
    }
  }

  void ServeConnection(int fd) {
    FrameBuffer in;
    const auto hello = in.Recv(fd);
    if (!hello.has_value() || !api::IsHelloRequest(*hello)) return;
    SendFrame(fd, api::EncodeHelloReply(api::kProtocolVersion));
    while (true) {
      const auto request = in.Recv(fd);
      if (!request.has_value()) return;
      // Apply FIRST — the whole point is that the daemon's state changes
      // even when the reply never leaves the building.
      const api::Result result = engine_.Apply(api::DecodeCommand(*request));
      frames_applied_.fetch_add(1);
      const size_t step = std::min(next_step_++, script_.size() - 1);
      switch (script_[step]) {
        case AfterApply::kReply:
          SendFrame(fd, api::EncodeResult(result));
          break;
        case AfterApply::kCloseNoReply:
          return;  // Caller closes fd: RST/FIN instead of a reply.
      }
    }
  }

  std::vector<AfterApply> script_;
  size_t next_step_ = 0;
  ShardedTtkv engine_{1};
  std::atomic<int> frames_applied_{0};
  int listen_fd_ = -1;
  std::atomic<int> active_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

TEST(ClientRetryTest, MutationIsNotResentAfterReachingTheWire) {
  // Script: apply the first frame, then kill the connection before the
  // reply. Every later frame behaves normally.
  FakeDaemon daemon({AfterApply::kCloseNoReply, AfterApply::kReply});
  TtkvClient client("127.0.0.1", daemon.port());

  EXPECT_THROW(client.Put("/once", Value("v1"), Seconds(1)), WireError);

  // Exactly-once: the daemon applied ONE frame; the history shows ONE
  // write. The old transparent-retry client recorded two.
  EXPECT_EQ(daemon.frames_applied(), 1);
  const auto record = api::History(daemon.engine(), "/once");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->write_count, 1u);
  ASSERT_EQ(record->versions.size(), 1u);
  EXPECT_EQ(record->versions[0].value, Value("v1"));

  // The client recovers on its own for the NEXT call (fresh connection).
  client.Put("/next", Value("v2"), Seconds(2));
  EXPECT_EQ(api::Get(daemon.engine(), "/next"), Value("v2"));
}

TEST(ClientRetryTest, MutatingBatchGetsTheSameProtection) {
  FakeDaemon daemon({AfterApply::kCloseNoReply, AfterApply::kReply});
  TtkvClient client("127.0.0.1", daemon.port());

  EXPECT_THROW(client.PutBatch({{"/b/a", Value(1)}, {"/b/b", Value(2)}}, Seconds(1)),
               WireError);
  EXPECT_EQ(daemon.frames_applied(), 1);
  EXPECT_EQ(api::History(daemon.engine(), "/b/a")->write_count, 1u);
}

TEST(ClientRetryTest, ReadsStillRetryTransparently) {
  // Same window, but for a GET: re-asking is harmless, so the client must
  // absorb the dropped reply and succeed on the retry connection.
  FakeDaemon daemon({AfterApply::kCloseNoReply, AfterApply::kReply});
  api::Put(daemon.engine(), "/r", Value("stored"), Seconds(1));

  TtkvClient client("127.0.0.1", daemon.port());
  EXPECT_EQ(client.Get("/r"), Value("stored"));
  EXPECT_EQ(daemon.frames_applied(), 2);  // Dropped once, answered once.
}

TEST(ClientRetryTest, MutationRetriesWhenTheDaemonDiedBeforeTheSend) {
  // The pre-send staleness probe: a daemon that restarted since the last
  // RPC has FIN'd the cached connection. The client must detect that
  // BEFORE committing the frame to the wire — that mutation never reached
  // anything, so retrying it is safe and expected.
  auto daemon = std::make_unique<FakeDaemon>(std::vector<AfterApply>{AfterApply::kReply});
  const uint16_t port = daemon->port();
  TtkvClient client("127.0.0.1", port);
  client.Put("/warm", Value(1), Seconds(1));  // Establishes the cached connection.

  daemon.reset();  // Old daemon gone; its FIN is pending on the cached socket.
  FakeDaemon revived({AfterApply::kReply}, port);  // New process, same address.

  // The SAME client, with its stale cached connection: the probe must see
  // the FIN, reconnect, and send the mutation exactly once to the revived
  // daemon — no WireError, because the frame never reached the old one.
  client.Put("/warm2", Value(2), Seconds(2));
  EXPECT_EQ(revived.frames_applied(), 1);
  EXPECT_EQ(api::Get(revived.engine(), "/warm2"), Value(2));
}

}  // namespace
}  // namespace ocasta
