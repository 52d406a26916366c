#include "protocol/wire_codec.h"

#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "protocol/action_codec.h"
#include "protocol/messages.h"
#include "store/codec.h"
#include "util/status.h"

namespace dcp::protocol {

using store::Blob;
using store::ByteReader;
using store::ByteWriter;
using store::Of;
using store::Tail;

// Field lists of the wire bodies (store/codec.h); the staged action's are
// in action_codec.h.
void Fields(auto& io, Of<ReplicaStateTuple> auto& t) {
  io(t.node, t.version, t.dversion, t.stale, t.elist, t.enumber);
}
void Fields(auto& io, Of<ObjectStateTuple> auto& t) {
  io(t.object, t.version, t.dversion, t.stale);
}
void Fields(auto& io, Of<LockRequest> auto& m) {
  io(m.owner, m.mode, m.object, m.data_from);
}
void Fields(auto& io, Of<LockResponse> auto& m) { io(m.state, m.data); }
void Fields(auto& io, Of<UnlockRequest> auto& m) { io(m.owner); }
void Fields(auto& io, Of<AckResponse> auto&) { io(); }
void Fields(auto& io, Of<FetchRequest> auto& m) { io(m.owner, m.object); }
void Fields(auto& io, Of<FetchResponse> auto& m) { io(m.version, m.data); }
void Fields(auto& io, Of<PrepareRequest> auto& m) {
  io(m.owner, Blob{m.action}, m.participants, Tail{m.expect});
}
void Fields(auto& io, Of<CommitRequest> auto& m) {
  io(m.owner, Tail{m.forget});
}
void Fields(auto& io, Of<AbortRequest> auto& m) {
  io(m.owner, Tail{m.forget});
}
void Fields(auto& io, Of<OutcomeRequest> auto& m) { io(m.owner); }
void Fields(auto& io, Of<OutcomeResponse> auto& m) {
  io(m.outcome, m.is_coordinator, m.in_progress);
}
/// The scope is a trailer: a group-wide poll is a bare tag byte.
void Fields(auto& io, Of<EpochPollRequest> auto& m) { io(m.scope); }
void Fields(auto& io, Of<EpochPollResponse> auto& m) {
  io(m.node, m.enumber, m.elist, m.objects);
}
void Fields(auto& io, Of<PropagationOffer> auto& m) {
  io(m.object, m.source_version, m.transfer_id);
}
void Fields(auto& io, Of<PropagationOfferReply> auto& m) {
  io(m.verdict, m.target_version);
}
void Fields(auto& io, Of<PropagationData> auto& m) {
  io(m.object, m.transfer_id, m.snapshot, m.snapshot_version,
     m.first_version, m.updates);
}
void Fields(auto& io, Of<PropagationDataReply> auto& m) {
  io(m.new_version);
}

namespace {

Status StatusFromWire(uint8_t code, std::string msg) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kAborted:
      return Status::Aborted(std::move(msg));
    case StatusCode::kConflict:
      return Status::Conflict(std::move(msg));
    case StatusCode::kStaleData:
      return Status::StaleData(std::move(msg));
    case StatusCode::kTimedOut:
      return Status::TimedOut(std::move(msg));
    case StatusCode::kCallFailed:
      return Status::CallFailed(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
  }
  return Status::Internal("unknown wire status code");
}

/// The closed body vocabulary. A body's tag byte is its 1-based position
/// in the list; tag 0 is "no payload". The tag tells request and response
/// bodies of one type apart and guards against a type/kind mismatch after
/// stream corruption. Tags 18-20 carried the retired election bodies and
/// decode as malformed; a body added to the list must first pad it past
/// them.
template <typename... Bodies>
struct BodyList {
  /// Writes `p`'s tag and fields; false (nothing written) for a payload
  /// type outside the list. Tries the types in list order.
  static bool Encode(ByteWriter& w, const net::Payload* p) {
    uint8_t tag = 0;
    return (EncodeAs<Bodies>(w, p, ++tag) || ...);
  }

  /// Decodes the body behind `tag`; an unknown tag fails `r`.
  static net::PayloadPtr Decode(ByteReader& r, uint8_t tag) {
    using Decoder = net::PayloadPtr (*)(ByteReader&);
    static constexpr Decoder kDecoders[] = {&DecodeAs<Bodies>...};
    if (tag == 0) return nullptr;
    if (tag > std::size(kDecoders)) {
      r.Fail();
      return nullptr;
    }
    return kDecoders[tag - 1](r);
  }

 private:
  template <typename B>
  static bool EncodeAs(ByteWriter& w, const net::Payload* p, uint8_t tag) {
    const B* body = dynamic_cast<const B*>(p);
    if (body == nullptr) return false;
    w.U8(tag);
    store::Put{w}(*body);
    return true;
  }
  template <typename B>
  static net::PayloadPtr DecodeAs(ByteReader& r) {
    auto body = std::make_shared<B>();
    store::Get{r}(*body);
    return body;
  }
};

using WireBodies =
    BodyList<LockRequest, LockResponse, UnlockRequest, AckResponse,
             FetchRequest, FetchResponse, PrepareRequest, CommitRequest,
             AbortRequest, OutcomeRequest, OutcomeResponse, EpochPollRequest,
             EpochPollResponse, PropagationOffer, PropagationOfferReply,
             PropagationData, PropagationDataReply>;

constexpr uint32_t kWireMagic = 0x44435031;  // "DCP1"

}  // namespace

std::vector<uint8_t> EncodeMessage(const net::Message& msg) {
  std::vector<uint8_t> out;
  if (!EncodeMessageInto(msg, &out)) return {};
  return out;
}

bool EncodeMessageInto(const net::Message& msg, std::vector<uint8_t>* out) {
  const size_t base = out->size();
  ByteWriter w(std::move(*out));
  w.U32(kWireMagic);
  w.U32(msg.src);
  w.U32(msg.dst);
  w.U64(msg.rpc_id);
  w.U8(static_cast<uint8_t>(msg.kind));
  w.U8(static_cast<uint8_t>(msg.status.code()));
  const std::string& status_msg = msg.status.message();
  w.U32(static_cast<uint32_t>(status_msg.size()));
  w.Raw(reinterpret_cast<const uint8_t*>(status_msg.data()),
        status_msg.size());
  const std::string& type = msg.type.str();
  w.U32(static_cast<uint32_t>(type.size()));
  w.Raw(reinterpret_cast<const uint8_t*>(type.data()), type.size());
  bool ok = true;
  if (msg.payload == nullptr) {
    w.U8(0);
  } else {
    ok = WireBodies::Encode(w, msg.payload.get());
  }
  *out = w.Take();
  if (!ok) out->resize(base);  // Leave the caller's prefix untouched.
  return ok;
}

bool DecodeMessage(const uint8_t* data, size_t len, net::Message* out) {
  ByteReader r(data, len);
  if (r.U32() != kWireMagic) return false;
  out->src = r.U32();
  out->dst = r.U32();
  out->rpc_id = r.U64();
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(net::Message::Kind::kCallFailed)) {
    return false;
  }
  out->kind = static_cast<net::Message::Kind>(kind);
  const uint8_t status_code = r.U8();
  if (status_code > static_cast<uint8_t>(StatusCode::kInternal)) return false;
  // Envelope strings alias the frame buffer (no temporaries): the type
  // interns directly from the view, and an OK status (the common case)
  // carries no message bytes at all.
  const std::string_view status_msg = r.BytesView();
  out->status = StatusFromWire(status_code, std::string(status_msg));
  const std::string_view type = r.BytesView();
  if (!r.ok()) return false;
  out->type = net::TypeName(type);
  out->payload = WireBodies::Decode(r, r.U8());
  return r.ok() && r.remaining() == 0;  // The body ends the frame.
}

rt::WireCodec MakeWireCodec() {
  rt::WireCodec codec;
  codec.encode = [](const net::Message& msg, std::vector<uint8_t>* out) {
    return EncodeMessageInto(msg, out);
  };
  codec.decode = [](const uint8_t* data, size_t len, net::Message* out) {
    return DecodeMessage(data, len, out);
  };
  return codec;
}

}  // namespace dcp::protocol
