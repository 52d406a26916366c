#include "store/durable_store.h"

#include <utility>

namespace dcp::store {

// Field lists of the checkpoint image (store/codec.h). A staged entry's
// key is its owner, so the entry encodes only what follows it; the
// per-object epoch lineages are a trailer that group-mode checkpoints
// omit, keeping them byte-identical to the pre-sharding format.
void Fields(auto& io, Of<RecoveredState::ObjectState> auto& s) {
  io(s.object, s.stale, s.desired_version);
}
void Fields(auto& io, Of<RecoveredState::StagedEntry> auto& e) {
  io(e.participants, e.action);
}
void Fields(auto& io, Of<RecoveredState> auto& s) {
  io(s.epoch_number, s.epoch_list, s.objects, s.staged, s.outcomes,
     s.pending_propagation, s.next_operation_id, Tail{s.object_epochs});
}

constexpr uint32_t kCheckpointMagic = 0x4B504344;  // "DCPK".

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

// --- checkpointing ---------------------------------------------------------

std::vector<uint8_t> DurableStore::EncodeCheckpoint(
    const RecoveredState& state, uint64_t covered_lsn) {
  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U64(covered_lsn);
  Put{w}(state);
  w.U32(Crc32(w.buffer()));
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
  if (!Get{r}(*state) || r.remaining() != 0) return false;
  for (auto& [key, entry] : state->staged) {
    entry.owner = storage::LockOwner{key.first, key.second};
  }
  return true;
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

void DurableStore::Recover(
    RecoveredState birth, const std::function<void(RecoveredState)>& image,
    const std::function<void(uint8_t, ByteReader&)>& record) {
  last_recovery_ = RecoveryStats{};

  uint64_t covered_lsn = wal_.base_lsn();
  const std::vector<uint8_t>& ckpt = disk_.DurableImage(ckpt_file_);
  if (!ckpt.empty()) {
    RecoveredState from_ckpt;
    uint64_t ckpt_covered = 0;
    if (DecodeCheckpoint(ckpt, &from_ckpt, &ckpt_covered)) {
      birth = std::move(from_ckpt);
      covered_lsn = ckpt_covered;
      last_recovery_.from_checkpoint = true;
      recoveries_from_checkpoint_->Increment();
    }
  }
  image(std::move(birth));

  WalScanStats scan =
      wal_.Scan([&record, covered_lsn](uint64_t lsn, uint8_t type,
                                       ByteReader& r) {
        if (lsn < covered_lsn) return;  // Checkpoint already covers it.
        record(type, r);
      });
  wal_.TrimTorn(scan);

  last_recovery_.replayed_records = scan.records;
  last_recovery_.torn_bytes = scan.torn_bytes;
  recoveries_->Increment();
  recovered_records_->Increment(scan.records);
  recovered_torn_bytes_->Increment(scan.torn_bytes);
}

}  // namespace dcp::store
