#include "protocol/wire_codec.h"

#include <bit>
#include <string>
#include <utility>

#include "protocol/action_codec.h"
#include "protocol/messages.h"
#include "store/codec.h"
#include "util/status.h"

namespace dcp::protocol {

namespace {

using store::ByteReader;
using store::ByteWriter;
using store::GetNodeSet;
using store::GetUpdate;
using store::PutNodeSet;
using store::PutUpdate;

void PutF64(ByteWriter& w, double v) { w.U64(std::bit_cast<uint64_t>(v)); }
double GetF64(ByteReader& r) { return std::bit_cast<double>(r.U64()); }

void PutOwner(ByteWriter& w, const LockOwner& o) {
  w.U32(o.coordinator);
  w.U64(o.operation_id);
}

LockOwner GetOwner(ByteReader& r) {
  LockOwner o;
  o.coordinator = r.U32();
  o.operation_id = r.U64();
  return o;
}

void PutReplicaState(ByteWriter& w, const ReplicaStateTuple& t) {
  w.U32(t.node);
  w.U64(t.version);
  w.U64(t.dversion);
  w.Bool(t.stale);
  PutNodeSet(w, t.elist);
  w.U64(t.enumber);
}

ReplicaStateTuple GetReplicaState(ByteReader& r) {
  ReplicaStateTuple t;
  t.node = r.U32();
  t.version = r.U64();
  t.dversion = r.U64();
  t.stale = r.Bool();
  t.elist = GetNodeSet(r);
  t.enumber = r.U64();
  return t;
}

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

/// Payload discriminators. The wire carries the request type string in
/// the envelope; the discriminator additionally distinguishes request
/// from response bodies of one type and guards against a type/kind
/// mismatch after stream corruption. Values 18-20 carried the retired
/// election bodies and now decode as malformed; a new body starts at 21.
enum class Body : uint8_t {
  kNone = 0,
  kLockRequest,
  kLockResponse,
  kUnlockRequest,
  kAckResponse,
  kFetchRequest,
  kFetchResponse,
  kPrepareRequest,
  kCommitRequest,
  kAbortRequest,
  kOutcomeRequest,
  kOutcomeResponse,
  kEpochPollRequest,
  kEpochPollResponse,
  kPropagationOffer,
  kPropagationOfferReply,
  kPropagationData,
  kPropagationDataReply,
};

/// Encodes one concrete payload. Returns false for an unknown dynamic
/// type (nothing written).
bool PutPayload(ByteWriter& w, const net::PayloadPtr& p) {
  const net::Payload* raw = p.get();
  if (auto* v = dynamic_cast<const LockRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kLockRequest));
    PutOwner(w, v->owner);
    w.U8(v->mode == LockMode::kExclusive ? 1 : 0);
    w.U32(v->object);
    PutF64(w, v->op_started);
    return true;
  }
  if (auto* v = dynamic_cast<const LockResponse*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kLockResponse));
    PutReplicaState(w, v->state);
    return true;
  }
  if (auto* v = dynamic_cast<const UnlockRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kUnlockRequest));
    PutOwner(w, v->owner);
    return true;
  }
  if (dynamic_cast<const AckResponse*>(raw) != nullptr) {
    w.U8(static_cast<uint8_t>(Body::kAckResponse));
    return true;
  }
  if (auto* v = dynamic_cast<const FetchRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kFetchRequest));
    PutOwner(w, v->owner);
    w.U32(v->object);
    return true;
  }
  if (auto* v = dynamic_cast<const FetchResponse*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kFetchResponse));
    w.U64(v->version);
    w.Bytes(v->data);
    return true;
  }
  if (auto* v = dynamic_cast<const PrepareRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kPrepareRequest));
    PutOwner(w, v->owner);
    w.Bytes(EncodeStagedAction(v->action));
    PutNodeSet(w, v->participants);
    return true;
  }
  if (auto* v = dynamic_cast<const CommitRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kCommitRequest));
    PutOwner(w, v->owner);
    return true;
  }
  if (auto* v = dynamic_cast<const AbortRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kAbortRequest));
    PutOwner(w, v->owner);
    return true;
  }
  if (auto* v = dynamic_cast<const OutcomeRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kOutcomeRequest));
    PutOwner(w, v->owner);
    return true;
  }
  if (auto* v = dynamic_cast<const OutcomeResponse*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kOutcomeResponse));
    w.U8(static_cast<uint8_t>(v->outcome));
    w.Bool(v->is_coordinator);
    w.Bool(v->in_progress);
    return true;
  }
  if (auto* v = dynamic_cast<const EpochPollRequest*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kEpochPollRequest));
    // Backward-compatible trailer: only scoped polls (per-object epoch
    // lineages) carry a scope; an unscoped poll stays a bare tag byte.
    if (v->scope) {
      w.Bool(true);
      w.U32(*v->scope);
    }
    return true;
  }
  if (auto* v = dynamic_cast<const EpochPollResponse*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kEpochPollResponse));
    w.U32(v->node);
    w.U64(v->enumber);
    PutNodeSet(w, v->elist);
    w.U32(static_cast<uint32_t>(v->objects.size()));
    for (const ObjectStateTuple& t : v->objects) {
      w.U32(t.object);
      w.U64(t.version);
      w.U64(t.dversion);
      w.Bool(t.stale);
    }
    return true;
  }
  if (auto* v = dynamic_cast<const PropagationOffer*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kPropagationOffer));
    w.U32(v->object);
    w.U64(v->source_version);
    w.U64(v->transfer_id);
    return true;
  }
  if (auto* v = dynamic_cast<const PropagationOfferReply*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kPropagationOfferReply));
    w.U8(static_cast<uint8_t>(v->verdict));
    w.U64(v->target_version);
    return true;
  }
  if (auto* v = dynamic_cast<const PropagationData*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kPropagationData));
    w.U32(v->object);
    w.U64(v->transfer_id);
    w.Bool(v->snapshot);
    w.U64(v->snapshot_version);
    w.U64(v->first_version);
    w.U32(static_cast<uint32_t>(v->updates.size()));
    for (const Update& u : v->updates) PutUpdate(w, u);
    return true;
  }
  if (auto* v = dynamic_cast<const PropagationDataReply*>(raw)) {
    w.U8(static_cast<uint8_t>(Body::kPropagationDataReply));
    w.U64(v->new_version);
    return true;
  }
  return false;
}

net::PayloadPtr GetPayload(ByteReader& r, bool* ok) {
  *ok = true;
  const Body body = static_cast<Body>(r.U8());
  switch (body) {
    case Body::kNone:
      return nullptr;
    case Body::kLockRequest: {
      auto v = std::make_shared<LockRequest>();
      v->owner = GetOwner(r);
      v->mode = r.U8() != 0 ? LockMode::kExclusive : LockMode::kShared;
      v->object = r.U32();
      v->op_started = GetF64(r);
      return v;
    }
    case Body::kLockResponse: {
      auto v = std::make_shared<LockResponse>();
      v->state = GetReplicaState(r);
      return v;
    }
    case Body::kUnlockRequest: {
      auto v = std::make_shared<UnlockRequest>();
      v->owner = GetOwner(r);
      return v;
    }
    case Body::kAckResponse:
      return std::make_shared<AckResponse>();
    case Body::kFetchRequest: {
      auto v = std::make_shared<FetchRequest>();
      v->owner = GetOwner(r);
      v->object = r.U32();
      return v;
    }
    case Body::kFetchResponse: {
      auto v = std::make_shared<FetchResponse>();
      v->version = r.U64();
      v->data = r.Bytes();
      return v;
    }
    case Body::kPrepareRequest: {
      auto v = std::make_shared<PrepareRequest>();
      v->owner = GetOwner(r);
      if (!DecodeStagedAction(r.Bytes(), &v->action)) {
        *ok = false;
        return nullptr;
      }
      v->participants = GetNodeSet(r);
      return v;
    }
    case Body::kCommitRequest: {
      auto v = std::make_shared<CommitRequest>();
      v->owner = GetOwner(r);
      return v;
    }
    case Body::kAbortRequest: {
      auto v = std::make_shared<AbortRequest>();
      v->owner = GetOwner(r);
      return v;
    }
    case Body::kOutcomeRequest: {
      auto v = std::make_shared<OutcomeRequest>();
      v->owner = GetOwner(r);
      return v;
    }
    case Body::kOutcomeResponse: {
      auto v = std::make_shared<OutcomeResponse>();
      uint8_t outcome = r.U8();
      if (outcome > static_cast<uint8_t>(TxOutcome::kAborted)) {
        *ok = false;
        return nullptr;
      }
      v->outcome = static_cast<TxOutcome>(outcome);
      v->is_coordinator = r.Bool();
      v->in_progress = r.Bool();
      return v;
    }
    case Body::kEpochPollRequest: {
      auto v = std::make_shared<EpochPollRequest>();
      if (r.ok() && r.remaining() > 0) {
        bool scoped = r.Bool();
        ObjectId object = r.U32();
        if (scoped) v->scope = object;
      }
      return v;
    }
    case Body::kEpochPollResponse: {
      auto v = std::make_shared<EpochPollResponse>();
      v->node = r.U32();
      v->enumber = r.U64();
      v->elist = GetNodeSet(r);
      const uint32_t count = r.U32();
      if (!r.ok() || count > r.remaining()) {  // >=1 byte per tuple.
        *ok = false;
        return nullptr;
      }
      v->objects.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        ObjectStateTuple t;
        t.object = r.U32();
        t.version = r.U64();
        t.dversion = r.U64();
        t.stale = r.Bool();
        v->objects.push_back(t);
      }
      return v;
    }
    case Body::kPropagationOffer: {
      auto v = std::make_shared<PropagationOffer>();
      v->object = r.U32();
      v->source_version = r.U64();
      v->transfer_id = r.U64();
      return v;
    }
    case Body::kPropagationOfferReply: {
      auto v = std::make_shared<PropagationOfferReply>();
      uint8_t verdict = r.U8();
      if (verdict > static_cast<uint8_t>(PropagationVerdict::kPermitted)) {
        *ok = false;
        return nullptr;
      }
      v->verdict = static_cast<PropagationVerdict>(verdict);
      v->target_version = r.U64();
      return v;
    }
    case Body::kPropagationData: {
      auto v = std::make_shared<PropagationData>();
      v->object = r.U32();
      v->transfer_id = r.U64();
      v->snapshot = r.Bool();
      v->snapshot_version = r.U64();
      v->first_version = r.U64();
      const uint32_t count = r.U32();
      if (!r.ok() || count > r.remaining()) {  // >=1 byte per update.
        *ok = false;
        return nullptr;
      }
      v->updates.reserve(count);
      for (uint32_t i = 0; i < count; ++i) v->updates.push_back(GetUpdate(r));
      return v;
    }
    case Body::kPropagationDataReply: {
      auto v = std::make_shared<PropagationDataReply>();
      v->new_version = r.U64();
      return v;
    }
  }
  *ok = false;
  return nullptr;
}

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
    w.U8(static_cast<uint8_t>(Body::kNone));
  } else {
    ok = PutPayload(w, msg.payload);
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
  bool payload_ok = true;
  out->payload = GetPayload(r, &payload_ok);
  return payload_ok && r.ok();
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
