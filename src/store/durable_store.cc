#include "store/durable_store.h"

#include <cassert>
#include <utility>

namespace dcp::store {

namespace {

constexpr uint32_t kCheckpointMagic = 0x4B504344;  // "DCPK".

void PutState(ByteWriter& w, const RecoveredState& s) {
  w.U64(s.epoch_number);
  PutNodeSet(w, s.epoch_list);
  w.U32(static_cast<uint32_t>(s.objects.size()));
  for (const auto& [id, os] : s.objects) {
    w.U32(id);
    w.U64(os.object.version());
    w.Bytes(os.object.data());
    w.Bool(os.stale);
    w.U64(os.desired_version);
  }
  w.U32(static_cast<uint32_t>(s.staged.size()));
  for (const auto& [key, e] : s.staged) {
    w.U32(e.owner.coordinator);
    w.U64(e.owner.operation_id);
    PutNodeSet(w, e.participants);
    w.Bytes(e.action);
  }
  w.U32(static_cast<uint32_t>(s.outcomes.size()));
  for (const auto& [key, outcome] : s.outcomes) {
    w.U32(key.first);
    w.U64(key.second);
    w.U8(outcome);
  }
  w.U32(static_cast<uint32_t>(s.pending_propagation.size()));
  for (const auto& [object, targets] : s.pending_propagation) {
    w.U32(object);
    PutNodeSet(w, targets);
  }
  w.U64(s.next_operation_id);
  // Backward-compatible trailer: only sharded deployments (per-object
  // epoch lineages) append this section, so a group-mode checkpoint stays
  // byte-identical to the pre-sharding format.
  if (!s.object_epochs.empty()) {
    w.U32(static_cast<uint32_t>(s.object_epochs.size()));
    for (const auto& [object, oe] : s.object_epochs) {
      w.U32(object);
      w.U64(oe.number);
      PutNodeSet(w, oe.list);
    }
  }
}

bool GetState(ByteReader& r, RecoveredState* s) {
  s->epoch_number = r.U64();
  s->epoch_list = GetNodeSet(r);
  uint32_t n_objects = r.U32();
  s->objects.clear();
  for (uint32_t i = 0; i < n_objects && r.ok(); ++i) {
    storage::ObjectId id = r.U32();
    storage::Version version = r.U64();
    std::vector<uint8_t> data = r.Bytes();
    RecoveredState::ObjectState os;
    os.object.InstallSnapshot(version, storage::Update::Total(std::move(data)));
    os.stale = r.Bool();
    os.desired_version = r.U64();
    s->objects.emplace(id, std::move(os));
  }
  uint32_t n_staged = r.U32();
  s->staged.clear();
  for (uint32_t i = 0; i < n_staged && r.ok(); ++i) {
    RecoveredState::StagedEntry e;
    e.owner.coordinator = r.U32();
    e.owner.operation_id = r.U64();
    e.participants = GetNodeSet(r);
    e.action = r.Bytes();
    s->staged.emplace(
        RecoveredState::TxKey{e.owner.coordinator, e.owner.operation_id},
        std::move(e));
  }
  uint32_t n_outcomes = r.U32();
  s->outcomes.clear();
  for (uint32_t i = 0; i < n_outcomes && r.ok(); ++i) {
    NodeId coord = r.U32();
    uint64_t op = r.U64();
    s->outcomes[{coord, op}] = r.U8();
  }
  uint32_t n_prop = r.U32();
  s->pending_propagation.clear();
  for (uint32_t i = 0; i < n_prop && r.ok(); ++i) {
    storage::ObjectId object = r.U32();
    s->pending_propagation[object] = GetNodeSet(r);
  }
  s->next_operation_id = r.U64();
  s->object_epochs.clear();
  if (r.ok() && r.remaining() > 0) {
    uint32_t n_oe = r.U32();
    for (uint32_t i = 0; i < n_oe && r.ok(); ++i) {
      storage::ObjectId object = r.U32();
      storage::EpochRecord oe;
      oe.number = r.U64();
      oe.list = GetNodeSet(r);
      s->object_epochs.emplace(object, std::move(oe));
    }
  }
  return r.ok();
}

}  // namespace

DurableStore::DurableStore(rt::Runtime* sim,
                           const DurabilityOptions& options)
    : sim_(sim),
      opt_(options),
      disk_(sim, options.disk, options.crash),
      wal_file_(disk_.OpenFile("wal")),
      ckpt_file_(disk_.OpenFile("ckpt")),
      wal_(sim, &disk_, wal_file_, WalOptions{options.flush_interval}) {
  wal_.set_on_sync([this] { MaybeCheckpoint(); });
  obs::MetricsRegistry& m = sim_->metrics();
  checkpoints_ = m.counter("store.checkpoints");
  checkpoint_bytes_ = m.counter("store.checkpoint_bytes");
  truncated_bytes_ = m.counter("store.truncated_bytes");
  recoveries_ = m.counter("store.recoveries");
  recovered_records_ = m.counter("store.recovered_records");
  recovered_torn_bytes_ = m.counter("store.recovered_torn_bytes");
  recoveries_from_checkpoint_ = m.counter("store.recoveries_from_checkpoint");
}

void DurableStore::AppendRecord(RecordType type, ByteWriter& payload) {
  wal_.Append(static_cast<uint8_t>(type), payload.buffer());
}

void DurableStore::LogUpdate(storage::ObjectId object,
                             storage::Version produced,
                             const storage::Update& update) {
  ByteWriter w;
  w.U32(object);
  w.U64(produced);
  PutUpdate(w, update);
  AppendRecord(RecordType::kUpdate, w);
}

void DurableStore::LogSnapshot(storage::ObjectId object,
                               storage::Version version,
                               const std::vector<uint8_t>& data) {
  ByteWriter w;
  w.U32(object);
  w.U64(version);
  w.Bytes(data);
  AppendRecord(RecordType::kSnapshot, w);
}

void DurableStore::LogMarkStale(storage::ObjectId object,
                                storage::Version desired) {
  ByteWriter w;
  w.U32(object);
  w.U64(desired);
  AppendRecord(RecordType::kMarkStale, w);
}

void DurableStore::LogClearStale(storage::ObjectId object) {
  ByteWriter w;
  w.U32(object);
  AppendRecord(RecordType::kClearStale, w);
}

void DurableStore::LogEpochInstall(storage::EpochNumber number,
                                   const NodeSet& list,
                                   std::optional<storage::ObjectId> scope) {
  ByteWriter w;
  if (scope) w.U32(*scope);
  w.U64(number);
  PutNodeSet(w, list);
  AppendRecord(scope ? RecordType::kObjectEpochInstall
                     : RecordType::kEpochInstall,
               w);
}

void DurableStore::LogStage(const storage::LockOwner& owner,
                            const NodeSet& participants,
                            const std::vector<uint8_t>& action) {
  ByteWriter w;
  w.U32(owner.coordinator);
  w.U64(owner.operation_id);
  PutNodeSet(w, participants);
  w.Bytes(action);
  AppendRecord(RecordType::kStage, w);
}

void DurableStore::LogResolve(const storage::LockOwner& owner,
                              uint8_t outcome) {
  ByteWriter w;
  w.U32(owner.coordinator);
  w.U64(owner.operation_id);
  w.U8(outcome);
  AppendRecord(RecordType::kResolve, w);
}

void DurableStore::LogDecide(const storage::LockOwner& owner,
                             uint8_t outcome) {
  ByteWriter w;
  w.U32(owner.coordinator);
  w.U64(owner.operation_id);
  w.U8(outcome);
  AppendRecord(RecordType::kDecide, w);
}

void DurableStore::LogPropAdd(storage::ObjectId object,
                              const NodeSet& targets) {
  ByteWriter w;
  w.U32(object);
  PutNodeSet(w, targets);
  AppendRecord(RecordType::kPropAdd, w);
}

void DurableStore::LogPropDone(storage::ObjectId object, NodeId target) {
  ByteWriter w;
  w.U32(object);
  w.U32(target);
  AppendRecord(RecordType::kPropDone, w);
}

void DurableStore::ReserveOperationIds(uint64_t next_id) {
  // Keep at least half a stride of durable headroom. The watermark rides
  // the lazy flush (no barrier of its own); with a stride generously
  // above the ids mintable within one flush interval, a recovered node
  // never reuses a LockOwner identity.
  if (next_id + kOpIdStride / 2 <= opid_watermark_) return;
  opid_watermark_ = next_id + kOpIdStride;
  ByteWriter w;
  w.U64(opid_watermark_);
  AppendRecord(RecordType::kOpWatermark, w);
}

// --- checkpointing ---------------------------------------------------------

std::vector<uint8_t> DurableStore::EncodeCheckpoint(
    const RecoveredState& state, uint64_t covered_lsn) {
  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U64(covered_lsn);
  PutState(w, state);
  uint32_t crc = Crc32(w.buffer());
  w.U32(crc);
  return w.Take();
}

bool DurableStore::DecodeCheckpoint(const std::vector<uint8_t>& blob,
                                    RecoveredState* state,
                                    uint64_t* covered_lsn) {
  if (blob.size() < 16) return false;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(blob[blob.size() - 4 + i]) << (8 * i);
  }
  if (Crc32(blob.data(), blob.size() - 4) != stored_crc) return false;
  ByteReader r(blob.data(), blob.size() - 4);
  if (r.U32() != kCheckpointMagic) return false;
  *covered_lsn = r.U64();
  return GetState(r, state) && r.remaining() == 0;
}

void DurableStore::MaybeCheckpoint() {
  if (checkpoint_inflight_ || !snapshot_) return;
  // Only checkpoint when the log has no unsynced tail: the snapshot is
  // taken from live state, which reflects *every* appended record, so
  // covered_lsn == end == durable-end and truncation later cannot orphan
  // (or double-cover) a record.
  if (wal_.end_lsn() != wal_.durable_end_lsn()) return;
  if (wal_.durable_end_lsn() - wal_.base_lsn() <
      opt_.checkpoint_threshold_bytes) {
    return;
  }
  checkpoint_inflight_ = true;
  const uint64_t covered = wal_.end_lsn();
  std::vector<uint8_t> blob = EncodeCheckpoint(snapshot_(), covered);
  checkpoint_bytes_->Increment(blob.size());
  const uint64_t trimmed = covered - wal_.base_lsn();
  disk_.Replace(ckpt_file_, std::move(blob), [this, covered, trimmed] {
    // Same simulator event as the rename: the prefix truncation is
    // atomic with checkpoint publication (no window where both the old
    // log prefix and the new checkpoint cover the same records).
    wal_.TruncatePrefix(covered);
    truncated_bytes_->Increment(trimmed);
    checkpoints_->Increment();
    checkpoint_inflight_ = false;
  });
}

// --- crash + recovery ------------------------------------------------------

void DurableStore::Crash() {
  wal_.OnCrash();
  checkpoint_inflight_ = false;  // The Replace completion will never fire.
  disk_.Crash();
}

void DurableStore::ApplyRecord(RecoveredState& state, uint8_t type,
                               ByteReader& r) {
  switch (static_cast<RecordType>(type)) {
    case RecordType::kUpdate: {
      storage::ObjectId object = r.U32();
      storage::Version produced = r.U64();
      storage::Update update = GetUpdate(r);
      if (!r.ok()) return;
      auto it = state.objects.find(object);
      if (it == state.objects.end()) return;
      // Records replay in their original order, so the version sequence
      // is contiguous; the guard only skips records a checkpoint already
      // covers (defensive — truncation should have removed them).
      if (it->second.object.version() + 1 == produced) {
        it->second.object.Apply(update);
      }
      break;
    }
    case RecordType::kSnapshot: {
      storage::ObjectId object = r.U32();
      storage::Version version = r.U64();
      std::vector<uint8_t> data = r.Bytes();
      if (!r.ok()) return;
      auto it = state.objects.find(object);
      if (it == state.objects.end()) return;
      if (it->second.object.version() < version) {
        it->second.object.InstallSnapshot(
            version, storage::Update::Total(std::move(data)));
      }
      break;
    }
    case RecordType::kMarkStale: {
      storage::ObjectId object = r.U32();
      storage::Version desired = r.U64();
      if (!r.ok()) return;
      auto it = state.objects.find(object);
      if (it == state.objects.end()) return;
      it->second.stale = true;
      it->second.desired_version = desired;
      break;
    }
    case RecordType::kClearStale: {
      storage::ObjectId object = r.U32();
      if (!r.ok()) return;
      auto it = state.objects.find(object);
      if (it == state.objects.end()) return;
      it->second.stale = false;
      it->second.desired_version = 0;
      break;
    }
    case RecordType::kEpochInstall: {
      storage::EpochNumber number = r.U64();
      NodeSet list = GetNodeSet(r);
      if (!r.ok()) return;
      // Epochs are monotone; replay never regresses one.
      if (number >= state.epoch_number) {
        state.epoch_number = number;
        state.epoch_list = list;
      }
      break;
    }
    case RecordType::kStage: {
      RecoveredState::StagedEntry e;
      e.owner.coordinator = r.U32();
      e.owner.operation_id = r.U64();
      e.participants = GetNodeSet(r);
      e.action = r.Bytes();
      if (!r.ok()) return;
      RecoveredState::TxKey key{e.owner.coordinator, e.owner.operation_id};
      state.staged[key] = std::move(e);
      break;
    }
    case RecordType::kResolve: {
      NodeId coord = r.U32();
      uint64_t op = r.U64();
      uint8_t outcome = r.U8();
      if (!r.ok()) return;
      state.staged.erase({coord, op});
      state.outcomes[{coord, op}] = outcome;
      break;
    }
    case RecordType::kDecide: {
      NodeId coord = r.U32();
      uint64_t op = r.U64();
      uint8_t outcome = r.U8();
      if (!r.ok()) return;
      // Outcome only — the staged entry (if any) stays until its effect
      // records and kResolve replay. See LogDecide.
      state.outcomes[{coord, op}] = outcome;
      break;
    }
    case RecordType::kPropAdd: {
      storage::ObjectId object = r.U32();
      NodeSet targets = GetNodeSet(r);
      if (!r.ok()) return;
      NodeSet& pending = state.pending_propagation[object];
      pending = pending.Union(targets);
      break;
    }
    case RecordType::kPropDone: {
      storage::ObjectId object = r.U32();
      NodeId target = r.U32();
      if (!r.ok()) return;
      auto it = state.pending_propagation.find(object);
      if (it != state.pending_propagation.end()) it->second.Erase(target);
      break;
    }
    case RecordType::kOpWatermark: {
      uint64_t watermark = r.U64();
      if (!r.ok()) return;
      if (watermark > state.next_operation_id) {
        state.next_operation_id = watermark;
      }
      break;
    }
    case RecordType::kObjectEpochInstall: {
      storage::ObjectId object = r.U32();
      storage::EpochNumber number = r.U64();
      NodeSet list = GetNodeSet(r);
      if (!r.ok()) return;
      // Per-object lineages are monotone, independently of one another.
      storage::EpochRecord& oe = state.object_epochs[object];
      if (number >= oe.number) {
        oe.number = number;
        oe.list = list;
      }
      break;
    }
  }
}

RecoveredState DurableStore::Recover(RecoveredState initial) {
  RecoveredState state = std::move(initial);
  last_recovery_ = RecoveryStats{};

  uint64_t covered_lsn = wal_.base_lsn();
  const std::vector<uint8_t>& ckpt = disk_.DurableImage(ckpt_file_);
  if (!ckpt.empty()) {
    RecoveredState from_ckpt;
    uint64_t ckpt_covered = 0;
    if (DecodeCheckpoint(ckpt, &from_ckpt, &ckpt_covered)) {
      state = std::move(from_ckpt);
      covered_lsn = ckpt_covered;
      last_recovery_.from_checkpoint = true;
      recoveries_from_checkpoint_->Increment();
    }
  }

  WalScanStats scan =
      wal_.Scan([&state, covered_lsn](uint64_t lsn, uint8_t type,
                                      ByteReader& r) {
        if (lsn < covered_lsn) return;  // Checkpoint already covers it.
        ApplyRecord(state, type, r);
      });
  wal_.TrimTorn(scan);

  opid_watermark_ = state.next_operation_id;
  last_recovery_.replayed_records = scan.records;
  last_recovery_.torn_bytes = scan.torn_bytes;
  recoveries_->Increment();
  recovered_records_->Increment(scan.records);
  recovered_torn_bytes_->Increment(scan.torn_bytes);
  return state;
}

}  // namespace dcp::store
