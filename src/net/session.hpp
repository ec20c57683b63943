#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ps::net {

/// Round-latency bucket edges (seconds) of every tier's round histogram —
/// sub-millisecond loopback rounds through multi-second stalls — so
/// per-level distributions compare bucket-for-bucket across the tree.
inline constexpr double kRoundLatencyBounds[] = {
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1,    0.25,  0.5,   1.0,   2.5,  5.0};

/// One framed peer connection: the transport, its incremental frame
/// decoder, pending output, and the registration identity its owner
/// assigns once the peer's first message arrives.
struct NetSession {
  std::unique_ptr<Transport> transport;
  FrameDecoder decoder;
  std::string outbox;
  /// The owner's own outbound link (the aggregator's parent): dialed by
  /// the owner, never wrapped, and never closed by the idle sweep.
  bool upstream = false;
  /// Flat-client registration: the one job this connection speaks for.
  std::string job_name;
  bool registered = false;
  /// Root-mode registration: this session is a rack aggregator carrying
  /// many jobs' traffic in batched frames.
  bool is_rack = false;
  std::string rack_name;
  /// Jobs bound through this rack. Owner invariant: a name is listed here
  /// exactly when its job record's session fd is this session's fd — the
  /// daemon appends only when a bind attaches the job to this fd, and
  /// unbinding (eviction, the rack's close) removes it — so membership
  /// needs no search.
  std::vector<std::string> rack_jobs;
  std::chrono::steady_clock::time_point last_activity;
};

/// Why a session left the table.
enum class CloseCause {
  kPeer,           ///< EOF, or a write found the peer dead.
  kProtocolError,  ///< A framing error, or the frame handler threw.
  kIdle,           ///< Silent past the idle timeout (sweep_idle).
};

/// What the table's owner does with its sessions. Every callback runs on
/// the loop thread; on_open, on_close and on_drained may be empty.
struct SessionHandlers {
  /// A listener accepted, or adopt() delivered, a connection.
  std::function<void(int fd)> on_open{};
  /// One decoded payload. A ps::Error thrown here closes the session as
  /// a protocol error.
  std::function<void(int fd, NetSession& session, const std::string& payload)>
      on_frame{};
  /// The session has left the table. Its transport is still open — the
  /// peer cannot observe the close before its consequences are recorded —
  /// and is closed when this returns.
  std::function<void(int fd, NetSession& session, CloseCause cause)> on_close{};
  /// One readiness event's input is drained: every decoded frame has
  /// been dispatched and the session is still open.
  std::function<void()> on_drained{};
};

/// The framed-server front end PowerDaemon and AggregatorDaemon share:
/// everything done with a peer before a payload means anything. It owns
/// the Unix and TCP listeners and their accept loop, the cross-thread
/// adoption queue, the fd -> NetSession map, the read -> FrameDecoder ->
/// dispatch loop, the entire write path and the idle sweep. Sessions
/// carry no coordination state: job records, rounds and forwarding live
/// with the owner, which sees only opens, payloads and closes.
///
/// Dispatch: a readable session is read in 4 KiB chunks until the
/// transport would block; each frame is handed to on_frame as soon as
/// it decodes, so a good frame ahead of a corrupt one is delivered
/// before the corruption closes the session as a protocol error.
///
/// Write coalescing: inside a Batch, queue_frame() only appends — every
/// touched session is flushed exactly once when the batch closes, so a
/// round that fans caps out to hundreds of sessions issues one write(2)
/// per session instead of one per frame. Outside a batch, queue_frame()
/// flushes immediately (the pre-coalescing behavior, kept for
/// registration replies and resends where latency beats batching). A
/// write that would block re-arms POLLOUT and drains on readiness.
///
/// Every close — peer EOF, a dead write, a protocol error, the idle
/// sweep — goes through close(), which hands the session to on_close;
/// the table never decides what a disconnect means.
class SessionTable {
 public:
  using Clock = std::chrono::steady_clock;
  /// Server-side decorator applied to every accepted or adopted
  /// transport (fault injection in tests); null means as-is.
  using TransportWrapper =
      std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>;

  SessionTable(EventLoop& loop, SessionHandlers handlers,
               TransportWrapper wrapper = nullptr);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Binds a listener whose connections become sessions. May be called
  /// more than once, from the loop thread.
  void listen_unix(const std::string& path);
  /// Port 0 picks an ephemeral port; see tcp_port().
  void listen_tcp(std::uint16_t port);
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Thread-safe: queues a pre-connected transport and wakes the loop;
  /// admit_adopted() makes it a session on the loop thread.
  void adopt(std::unique_ptr<Transport> transport);
  void admit_adopted();

  /// Registers a transport as-is (no wrapper, no on_open) and returns
  /// its fd.
  int add(std::unique_ptr<Transport> transport);

  [[nodiscard]] NetSession* find(int fd);
  [[nodiscard]] bool contains(int fd) const;

  /// Closes through on_close. Idempotent: an fd no longer in the table
  /// (closed during a flush, say) is a no-op.
  void close(int fd, CloseCause cause);
  /// Unregisters, erases and closes the session without on_close (the
  /// owner already knows why). False when `fd` is not in the table.
  bool remove(int fd);

  /// Appends a frame to the session's outbox; flushes now, or at batch
  /// close when a Batch is open.
  void queue_frame(int fd, NetSession& session, std::string_view frame);
  /// Drives pending output (the POLLOUT path). A dead peer is closed.
  void flush(int fd, NetSession& session);
  /// Queues `frame` on every registered session in one Batch (a dead
  /// peer is closed when it drains) and returns how many were queued.
  std::size_t broadcast(std::string_view frame);

  /// Closes every non-upstream session silent for longer than
  /// `idle_timeout`, oldest fd first.
  void sweep_idle(std::chrono::milliseconds idle_timeout);

  /// RAII write-coalescing scope. Nested batches collapse into the
  /// outermost one. The destructor flushes and may propagate an
  /// invariant failure raised while recording a dead peer's close —
  /// hence noexcept(false).
  class Batch {
   public:
    explicit Batch(SessionTable& table);
    ~Batch() noexcept(false);
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    SessionTable& table_;
    bool engaged_;
  };

 private:
  void watch_listener(Listener listener);
  void admit(std::unique_ptr<Transport> transport);
  void on_ready(int fd, short revents);
  void flush_pending();

  EventLoop& loop_;
  SessionHandlers handlers_;
  TransportWrapper wrapper_;
  std::vector<Listener> listeners_;
  std::uint16_t tcp_port_ = 0;
  std::map<int, NetSession> map_;
  bool corked_ = false;
  std::vector<int> pending_flush_;
  std::mutex adopt_mutex_;  ///< Guards adopted_.
  std::vector<std::unique_ptr<Transport>> adopted_;
};

}  // namespace ps::net
