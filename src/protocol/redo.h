#ifndef DCP_PROTOCOL_REDO_H_
#define DCP_PROTOCOL_REDO_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "protocol/action_codec.h"
#include "protocol/messages.h"
#include "store/codec.h"
#include "store/durable_store.h"

/// The redo records of a replica node's write-ahead log and checkpoints:
/// each is one change to the node's persistent state. ReplicaNode::Apply
/// gives them their meaning, live and on replay (DESIGN.md section 8); the
/// store holds each as a type byte and the record's field list.
namespace dcp::protocol::redo {

/// The update that produced version `produced` of `object`.
struct Update {
  ObjectId object = 0;
  Version produced = 0;
  storage::Update update;
};
/// A total value installed as `version`.
struct Snapshot {
  ObjectId object = 0;
  Version version = 0;
  std::vector<uint8_t> data;
};
struct MarkStale {
  ObjectId object = 0;
  Version desired = 0;
};
struct ClearStale {
  ObjectId object = 0;
};
/// An epoch install on the group-wide lineage.
struct EpochInstall {
  EpochNumber number = 0;
  NodeSet list;
};
/// A prepared 2PC action, staged until a Resolve.
struct Stage {
  LockOwner owner;
  NodeSet participants;
  StagedAction action;
};
/// The staged action's effects are applied: its entry goes, its outcome
/// stays until the coordinator's forget notice (a peer blocked on the
/// transaction may still ask for it).
struct Resolve {
  LockOwner owner;
  TxOutcome outcome = TxOutcome::kUnknown;
};
struct PropAdd {
  ObjectId object = 0;
  NodeSet targets;
};
struct PropDone {
  ObjectId object = 0;
  NodeId target = 0;
};
/// Operation ids below `watermark` may have been handed out.
struct OpWatermark {
  uint64_t watermark = 0;
};
/// An outcome decided or learned. Unlike Resolve it keeps a staged entry:
/// a coordinator that decided but crashed before its own participant
/// commit still owes the staged action's effects. kUnknown forgets the
/// outcome: every participant has resolved, so none can still ask, and a
/// coordinator with no record answers presumed abort.
struct Decide {
  LockOwner owner;
  TxOutcome outcome = TxOutcome::kUnknown;
};
/// An epoch install on one object's lineage (sharded deployments).
struct ObjectEpochInstall {
  ObjectId object = 0;
  EpochNumber number = 0;
  NodeSet list;
};

/// A record's WAL type byte is its 1-based position in this list, so a
/// new record goes last.
using Record =
    std::variant<Update, Snapshot, MarkStale, ClearStale, EpochInstall, Stage,
                 Resolve, PropAdd, PropDone, OpWatermark, Decide,
                 ObjectEpochInstall>;

/// Recovery skips this many operation ids past the last durable
/// watermark, so no id is reused while fewer than this many are minted
/// between watermark flushes.
inline constexpr uint64_t kOpIdStride = 256;

// Field lists (store/codec.h). The staged action nests behind its byte
// length, as in the wire's PrepareRequest.
void Fields(auto& io, store::Of<Update> auto& r) {
  io(r.object, r.produced, r.update);
}
void Fields(auto& io, store::Of<Snapshot> auto& r) {
  io(r.object, r.version, r.data);
}
void Fields(auto& io, store::Of<MarkStale> auto& r) { io(r.object, r.desired); }
void Fields(auto& io, store::Of<ClearStale> auto& r) { io(r.object); }
void Fields(auto& io, store::Of<EpochInstall> auto& r) { io(r.number, r.list); }
void Fields(auto& io, store::Of<Stage> auto& r) {
  io(r.owner, r.participants, store::Blob{r.action});
}
void Fields(auto& io, store::Of<Resolve> auto& r) { io(r.owner, r.outcome); }
void Fields(auto& io, store::Of<PropAdd> auto& r) { io(r.object, r.targets); }
void Fields(auto& io, store::Of<PropDone> auto& r) { io(r.object, r.target); }
void Fields(auto& io, store::Of<OpWatermark> auto& r) { io(r.watermark); }
void Fields(auto& io, store::Of<Decide> auto& r) { io(r.owner, r.outcome); }
void Fields(auto& io, store::Of<ObjectEpochInstall> auto& r) {
  io(r.object, r.number, r.list);
}

/// The WAL type byte of record type R.
template <typename R>
inline constexpr uint8_t kType = []<typename... Rs>(std::variant<Rs...>*) {
  uint8_t type = 0;
  return ((++type, std::is_same_v<R, Rs>) || ...) ? type : uint8_t{0};
}(static_cast<Record*>(nullptr));

/// Appends `record` to `store` (durable at the next barrier).
template <typename R>
void Append(store::DurableStore& store, const R& record,
            store::Flush flush = store::Flush::kLazy) {
  static_assert(kType<R> != 0, "not a redo record");
  store::ByteWriter w;
  store::Put{w}(record);
  store.Append(kType<R>, w.buffer(), flush);
}

/// The record of `type` at the front of `r`; nothing for an unknown type
/// or a malformed payload.
inline std::optional<Record> DecodeNext(uint8_t type, store::ByteReader& r) {
  std::optional<Record> out;
  [&]<typename... Rs>(std::variant<Rs...>*) {
    uint8_t at = 0;
    auto decode = [&]<typename R>(std::type_identity<R>) {
      if (++at != type) return;
      R record;
      if (store::Get{r}(record)) out = std::move(record);
    };
    (decode(std::type_identity<Rs>{}), ...);
  }(static_cast<Record*>(nullptr));
  return out;
}

/// The record behind `type` and its payload; nothing for an unknown type,
/// a malformed payload or bytes left over after the record.
inline std::optional<Record> Decode(uint8_t type, store::ByteReader& r) {
  std::optional<Record> out = DecodeNext(type, r);
  if (r.remaining() != 0) return std::nullopt;
  return out;
}

// --- checkpoints -----------------------------------------------------------
//
// A checkpoint body is a run of records that rebuilds a node from its
// birth state through ReplicaNode::Apply, as the log does after it. The
// records are grouped in runs of one type, each a [type u8][count u32]
// header followed by the records' field lists, so a record costs only its
// fields.

/// Appends records to a checkpoint body, opening a run at each change of
/// record type.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(store::ByteWriter& w) : w_(w) {}

  template <typename R>
  void Add(const R& record) {
    static_assert(kType<R> != 0, "not a redo record");
    if (kType<R> != type_) {
      type_ = kType<R>;
      count_ = 0;
      w_.U8(type_);
      count_at_ = w_.size();
      w_.U32(0);
    }
    store::Put{w_}(record);
    w_.PatchU32(count_at_, ++count_);
  }

 private:
  store::ByteWriter& w_;
  uint8_t type_ = 0;
  uint32_t count_ = 0;
  size_t count_at_ = 0;
};

/// Hands each record of checkpoint body `r` to `apply`, in order. False
/// when the body is malformed; the records before the fault were handed
/// out.
inline bool ReadCheckpoint(store::ByteReader& r,
                           const std::function<void(Record)>& apply) {
  while (r.ok() && r.remaining() > 0) {
    const uint8_t type = r.U8();
    for (uint32_t n = r.U32(); n > 0 && r.ok(); --n) {
      std::optional<Record> record = DecodeNext(type, r);
      if (!record) return false;
      apply(std::move(*record));
    }
  }
  return r.ok();
}

}  // namespace dcp::protocol::redo

#endif  // DCP_PROTOCOL_REDO_H_
