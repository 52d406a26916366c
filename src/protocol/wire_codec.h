#ifndef DCP_PROTOCOL_WIRE_CODEC_H_
#define DCP_PROTOCOL_WIRE_CODEC_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "runtime/socket_transport.h"

namespace dcp::protocol {

/// Serializes a full net::Message — envelope (src, dst, rpc id, kind,
/// status, type) plus the typed payload — for the socket transport's
/// length-prefixed frames. Each payload body is a tag byte and the
/// body's field list, encoded by the store::Put / store::Get visitors
/// (store/codec.h) that also encode the WAL records and checkpoints;
/// the prepare nests action_codec's StagedAction encoding.
///
/// Returns an empty buffer for a message whose type/kind has no
/// registered payload encoding (a programming error — the vocabulary is
/// closed; see messages.h).
std::vector<uint8_t> EncodeMessage(const net::Message& msg);

/// Encode-into-span variant: appends the encoding to `*out`, preserving
/// whatever the caller already put there (the socket transport reserves
/// its 4-byte frame header up front, then patches it — header and
/// payload share one pooled buffer, so a steady-state send allocates
/// nothing and the frame goes out in a single writev). Returns false —
/// with `*out` restored to its original length — for a message with no
/// wire encoding.
bool EncodeMessageInto(const net::Message& msg, std::vector<uint8_t>* out);

/// Inverse of EncodeMessage. Returns false on malformed input (bad
/// envelope, unknown type, truncated payload, bytes after the body) and
/// leaves `out` unspecified. Envelope strings are interned straight out
/// of `data` (no temporary copies), so the buffer only needs to outlive
/// the call.
bool DecodeMessage(const uint8_t* data, size_t len, net::Message* out);

/// The protocol vocabulary's codec, packaged for SocketTransport.
rt::WireCodec MakeWireCodec();

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_WIRE_CODEC_H_
