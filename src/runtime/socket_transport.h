#ifndef DCP_RUNTIME_SOCKET_TRANSPORT_H_
#define DCP_RUNTIME_SOCKET_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "net/message.h"
#include "runtime/transport.h"
#include "util/buffer_pool.h"
#include "util/mutex.h"
#include "util/node_set.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dcp::rt {

/// Serializes protocol messages for the wire. The runtime layer knows
/// nothing about payload types — the protocol layer supplies the codec
/// (see protocol::MakeWireCodec), keeping the dependency arrow pointing
/// the right way. `encode` appends the frame payload to `*out`
/// (preserving the caller's prefix — the transport reserves its length
/// header there, so header and payload share one pooled buffer) and
/// returns false for an unencodable message, restoring `*out`.
/// `decode` returns false on a malformed frame.
struct WireCodec {
  std::function<bool(const net::Message&, std::vector<uint8_t>* out)> encode;
  std::function<bool(const uint8_t* data, size_t len, net::Message* out)>
      decode;
};

/// The socket transport's wire-level counters (SocketTransport::counters).
/// The simulator has no wire, so it keeps none of these.
///
///  - frames_sent/received: complete frames written to / decoded from
///    sockets (self-sends bypass the wire and are not counted).
///  - frames_dropped: outbound frames discarded by connection teardown
///    (their senders were notified via on_failed).
///  - decode_failures: inbound stream corruption — an oversized length
///    prefix or an undecodable payload. Each one tears the connection
///    down (a desynchronized byte stream cannot be trusted again).
///  - send_queue_overflows: sends rejected because the destination
///    endpoint's bounded outbound queue was full (slow-peer backpressure;
///    the sender was notified via on_failed instead of blocking).
///  - writev_calls: flush syscalls issued; frames_sent / writev_calls is
///    the realized batching factor.
///
/// A counters() snapshot is safe to take from any thread while traffic
/// flows: each counter is a lock-free relaxed atomic (they are
/// independent monotonic event counts with no cross-field invariant),
/// so a snapshot is some valid point in each counter's history — and
/// exact once the transport's threads quiesce, which is when tests and
/// benches assert on it.
struct TransportCounters {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t frames_dropped = 0;
  uint64_t decode_failures = 0;
  uint64_t send_queue_overflows = 0;
  uint64_t writev_calls = 0;
};

struct SocketTransportOptions {
  uint32_t num_nodes = 0;
  /// Worker threads draining node mailboxes. 0 picks a default from the
  /// node count and hardware concurrency (at least 2, so real thread
  /// interleavings happen even on tiny machines).
  uint32_t num_workers = 0;
  WireCodec codec;
  /// Frames coalesced into one writev per flush. 1 = one frame per
  /// syscall (header and payload still travel together — a frame is a
  /// single contiguous buffer, so it can never be torn by a failure
  /// between two writes).
  uint32_t max_batch_frames = 64;
  /// Bounded per-endpoint outbound queue. A send that would exceed
  /// either bound fails immediately via on_failed and counts as a
  /// send_queue_overflow — slow-peer backpressure surfaces to the
  /// sender instead of wedging a worker thread.
  size_t max_queue_frames = 4096;
  size_t max_queue_bytes = 8u << 20;
  /// Recycle frame-encode buffers through a free-list pool (see
  /// util::BufferPool); off = a fresh allocation per send.
  bool pool_buffers = true;
};

/// The real-threads backend of the transport/runtime seam: a full TCP
/// mesh over loopback carrying length-prefixed frames, one I/O thread,
/// and a worker pool draining per-node mailboxes.
///
/// Threading model (see DESIGN.md section 11):
///  - The I/O thread owns every socket's read side: poll() over the mesh
///    plus a self-pipe, framing, decode, and routing into the
///    destination node's mailbox. Its poll timeout doubles as the timer
///    wheel — due timers are moved into their node's mailbox as posted
///    closures. It also owns blocked write sides: an endpoint whose
///    queue could not drain re-arms POLLOUT and the I/O thread finishes
///    the flush when the peer catches up.
///  - Workers pop ready nodes from a shared queue. A node is drained by
///    at most one worker at a time (a `queued` flag arbitrates), so
///    protocol code stays effectively single-threaded per node — the
///    same actor model the simulator provides, minus determinism.
///  - Sends encode into a pooled buffer, append to the destination
///    endpoint's bounded outbound queue, and opportunistically flush
///    inline with scatter-gather writev (multiple frames per syscall).
///    A send never blocks: if the socket would block, the queued bytes
///    wait for the I/O thread's POLLOUT; if the queue is full, the send
///    fails fast via on_failed.
///
/// Each node gets a private Runtime (monotonic wall clock, thread-safe
/// timers, its own Observability — counters are not atomic, and mailbox
/// hand-offs give the per-node happens-before edges). All interaction
/// with a node from outside must be posted onto its runtime.
///
/// Connection teardown: stream corruption (oversized length prefix,
/// undecodable frame), a write error, or peer EOF marks the connection
/// broken — the socket is shut down, queued sends fail via on_failed,
/// and later sends to that peer fail fast. A desynchronized TCP stream
/// is never resynchronized by guesswork; the RPC layer's timeouts treat
/// the torn link like a partition.
///
/// Fail-stop administration: SetNodeUp(node, false) makes the node drop
/// inbound traffic (via the sink's IsUp guard, exactly like the sim
/// backend) and makes sends to it fail fast at the sender. Threads and
/// sockets stay alive — this transport models crashes, it does not
/// perform them.
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds loopback listeners, dials the full mesh, and starts the I/O
  /// and worker threads. Register every sink before sending traffic.
  [[nodiscard]] Status Start();

  /// Clean shutdown: drains nothing, joins every thread, closes every
  /// socket. Idempotent; the destructor calls it. Pending timers and
  /// queued messages are discarded.
  void Stop();

  // rt::Transport:
  void Register(NodeId node, net::MessageSink* sink) override;
  void SetNodeUp(NodeId node, bool up) override;
  bool IsUp(NodeId node) const override;
  void Send(net::Message msg,
            std::function<void()> on_failed = nullptr) override;
  Runtime* runtime(NodeId node) override;
  void set_send_tap(SendTap tap) override;

  /// Snapshot of the wire-level counters (see TransportCounters).
  [[nodiscard]] TransportCounters counters() const;

  [[nodiscard]] const util::BufferPool& buffer_pool() const { return pool_; }

  // --- fault-injection hooks (tests only) -------------------------------

  /// Writes raw bytes onto the src -> dst socket, bypassing framing —
  /// the regression hook for stream-corruption handling.
  [[nodiscard]] Status InjectRawBytesForTest(NodeId src, NodeId dst,
                                             const std::vector<uint8_t>& raw);
  /// Makes the I/O thread stop (or resume) reading what `src` sends to
  /// `dst`, simulating a slow reader: the sender's kernel buffer fills,
  /// then its outbound queue, then sends start failing fast.
  void PauseReadsForTest(NodeId src, NodeId dst, bool paused);
  /// Caps the bytes any single flush may write, forcing frames to
  /// straddle multiple writev calls (partial-write resumption paths).
  void SetWriteCapForTest(size_t bytes);
  /// Tears down the a <-> b connection as if it died mid-stream.
  void BreakConnectionForTest(NodeId a, NodeId b);

 private:
  class NodeLoop;

  /// One queued outbound frame: `bytes` is the complete wire frame
  /// (4-byte LE length prefix + payload) in a pooled buffer.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    NodeId src = kInvalidNode;
    std::function<void()> on_failed;
  };

  struct Endpoint {
    int fd = -1;
    NodeId owner = kInvalidNode;  ///< Local node that writes through here.
    NodeId peer = kInvalidNode;   ///< Remote node (inbound frames' sender).
    std::vector<uint8_t> rbuf;    ///< I/O-thread-only read buffer.

    /// Torn down (corrupt stream / write error / EOF). Sends fail fast;
    /// the I/O thread drops the fd from its poll set.
    std::atomic<bool> broken{false};
    /// The I/O thread should poll POLLOUT and drain `outq`.
    std::atomic<bool> want_pollout{false};
    std::atomic<bool> read_paused{false};  ///< Test hook.

    util::Mutex out_mu;
    std::deque<OutFrame> outq DCP_GUARDED_BY(out_mu);
    /// Bytes of the front frame already written.
    size_t out_off DCP_GUARDED_BY(out_mu) = 0;
    size_t outq_bytes DCP_GUARDED_BY(out_mu) = 0;
    /// True while one thread runs the flush loop. The flusher drops
    /// `out_mu` across each writev (no lock held over a syscall), so
    /// concurrent senders keep appending — that is where batching comes
    /// from. Only the flusher pops frames; teardown while a flush is in
    /// flight defers queue cleanup to the flusher.
    bool flushing DCP_GUARDED_BY(out_mu) = false;
  };

  enum class FlushResult {
    kDrained,     ///< Queue empty (or another thread is flushing it).
    kBlocked,     ///< Socket full; remainder waits for POLLOUT.
    kError,       ///< Write error; the connection was torn down.
  };

  Time NowMs() const;
  NodeLoop* loop(NodeId node) const;
  /// Enqueues a decoded message into `dst`'s mailbox (any thread).
  void DeliverLocal(net::Message msg);
  /// Batch DeliverLocal: one mailbox lock + wakeup per destination run.
  void DeliverBatch(std::vector<net::Message> batch);
  /// Enqueues a closure onto `node`'s mailbox (any thread).
  void PostClosure(NodeId node, std::function<void()> fn);
  void EnqueueReady(NodeLoop* l);
  void WakeIo();
  /// Drains `ep.outq` with scatter-gather writev until empty or
  /// EWOULDBLOCK. Acquires `ep.out_mu` itself and drops it across each
  /// syscall (the single-flusher drop/reacquire protocol — DESIGN.md
  /// section 13); callers must NOT hold it. At most one flusher runs per
  /// endpoint; a caller that finds a flush in progress returns
  /// immediately (the active flusher picks its frames up). Handles write
  /// errors internally (teardown).
  FlushResult Flush(Endpoint& ep) DCP_EXCLUDES(ep.out_mu);
  /// Fails every queued send and empties the queue.
  void FailQueueLocked(Endpoint& ep) DCP_REQUIRES(ep.out_mu);
  /// Marks the connection broken, shuts the socket down, and fails every
  /// queued send (deferred to the active flusher if one is mid-writev).
  /// Idempotent.
  void TeardownLocked(Endpoint& ep) DCP_REQUIRES(ep.out_mu);
  void Teardown(Endpoint& ep) DCP_EXCLUDES(ep.out_mu);
  void IoThread();
  void WorkerThread();
  /// Drains `ep.rbuf` into complete frames; decodes and routes them.
  /// Corruption tears the connection down.
  void ConsumeFrames(Endpoint& ep);

  SocketTransportOptions options_;
  std::vector<std::unique_ptr<NodeLoop>> loops_;

  // ep_[i][j]: the socket endpoint node i writes to reach node j
  // (i != j). Both directions of a pair share one TCP connection; each
  // side holds its own endpoint fd. All endpoint read sides are polled
  // by the I/O thread.
  std::vector<std::vector<std::unique_ptr<Endpoint>>> ep_;
  std::vector<int> listen_fds_;
  int wake_pipe_[2] = {-1, -1};

  util::BufferPool pool_;

  SendTap send_tap_;  ///< Install before Start; may run on any thread.

  util::Mutex ready_mu_;
  util::CondVar ready_cv_;
  std::deque<uint32_t> ready_ DCP_GUARDED_BY(ready_mu_);
  bool stopping_ DCP_GUARDED_BY(ready_mu_) = false;

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};

  /// The deadline the I/O thread is currently sleeping toward; Schedule
  /// only wakes it for earlier deadlines.
  std::atomic<double> io_deadline_{0};

  // Transport counters: written by the I/O thread, workers, and sender
  // threads concurrently; read by bench/metrics threads at any time.
  // They are lock-free relaxed atomics on purpose — each is an
  // independent monotonic event count with no cross-field invariant, so
  // a relaxed snapshot is always some valid point in each counter's
  // history (and exact once writers quiesce, which is when counters()
  // is asserted on). Everything that does need cross-field consistency
  // lives under a mutex above and is DCP_GUARDED_BY-annotated.
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_dropped_{0};
  std::atomic<uint64_t> decode_failures_{0};
  std::atomic<uint64_t> send_queue_overflows_{0};
  std::atomic<uint64_t> writev_calls_{0};
  std::atomic<size_t> write_cap_for_test_{0};  ///< 0 = uncapped.

  std::chrono::steady_clock::time_point epoch_;  // dcp-lint: allow(wall-clock) — this backend's monotonic clock IS wall time
};

}  // namespace dcp::rt

#endif  // DCP_RUNTIME_SOCKET_TRANSPORT_H_
