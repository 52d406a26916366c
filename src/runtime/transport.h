#ifndef DCP_RUNTIME_TRANSPORT_H_
#define DCP_RUNTIME_TRANSPORT_H_

#include <functional>

#include "net/message.h"
#include "runtime/runtime.h"
#include "util/node_set.h"

namespace dcp::rt {

/// Observes every message the transport accepts for sending, at the point
/// of send (before any latency, loss, or socket write). Used by the
/// cross-backend conformance test to compare protocol-visible message
/// sequences; a null tap costs one branch per send.
///
/// On the socket backend the tap runs on whichever thread issued the
/// send — a tap installed there must be thread-safe.
using SendTap = std::function<void(const net::Message&)>;

/// The message-boundary half of the transport/runtime seam (the dsnet
/// `Replica::ReceiveMessage` idiom): node registration, fail-stop
/// up/down administration, and an asynchronous send with sender-side
/// failure notification. The protocol layer talks only to this interface;
/// which side of it is a discrete-event simulation and which is a TCP
/// mesh is a deployment decision.
///
/// Backends:
///  - `net::Network` (the sim transport): deterministic virtual-time
///    delivery with the paper's fail-stop semantics plus opt-in message
///    faults. `runtime(n)` returns the shared simulator for every node.
///  - `rt::SocketTransport`: loopback TCP, one I/O thread + a worker
///    pool, per-node mailboxes. `runtime(n)` returns node n's private
///    runtime; all interaction with a node must happen on it.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers `sink` for `node`. Nodes start up.
  virtual void Register(NodeId node, net::MessageSink* sink) = 0;

  /// Crash / repair administration. Crashing does not drop registration;
  /// it only makes the node unreachable (fail-stop).
  virtual void SetNodeUp(NodeId node, bool up) = 0;
  [[nodiscard]] virtual bool IsUp(NodeId node) const = 0;

  /// Sends a message. If it turns out undeliverable, `on_failed` (when
  /// provided) fires at the sender side — the transport half of
  /// RPC.CallFailed. Delivery is asynchronous on every backend.
  virtual void Send(net::Message msg,
                    std::function<void()> on_failed = nullptr) = 0;

  /// The runtime hosting `node`'s execution context.
  virtual Runtime* runtime(NodeId node) = 0;

  /// Installs (or clears, with nullptr) the send tap.
  virtual void set_send_tap(SendTap tap) = 0;
};

}  // namespace dcp::rt

#endif  // DCP_RUNTIME_TRANSPORT_H_
