#include "store/durable_store.h"

#include <utility>

namespace dcp::store {

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
    uint64_t covered_lsn, const std::function<void(ByteWriter&)>& body) {
  ByteWriter w;
  w.U32(kCheckpointMagic);
  w.U64(covered_lsn);
  body(w);
  w.U32(Crc32(w.buffer()));
  return w.Take();
}

namespace {

/// The body of checkpoint file `blob` and the LSN it covers; false when
/// the file fails its CRC or magic.
bool DecodeCheckpoint(const std::vector<uint8_t>& blob, ByteReader* body,
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
  *body = r;
  return true;
}

}  // namespace

void DurableStore::MaybeCheckpoint() {
  if (checkpoint_inflight_ || !checkpoint_source_) return;
  // Only checkpoint when the log has no unsynced tail: the body is
  // written from live state, which reflects *every* appended record, so
  // covered_lsn == end == durable-end and truncation later cannot orphan
  // (or double-cover) a record.
  if (wal_.end_lsn() != wal_.durable_end_lsn()) return;
  if (wal_.durable_end_lsn() - wal_.base_lsn() <
      opt_.checkpoint_threshold_bytes) {
    return;
  }
  checkpoint_inflight_ = true;
  const uint64_t covered = wal_.end_lsn();
  std::vector<uint8_t> blob = EncodeCheckpoint(covered, checkpoint_source_);
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

Status DurableStore::Recover(
    const std::function<bool(ByteReader&)>& checkpoint,
    const std::function<void(uint8_t, ByteReader&)>& record) {
  last_recovery_ = RecoveryStats{};

  uint64_t covered_lsn = wal_.base_lsn();
  const std::vector<uint8_t>& ckpt = disk_.DurableImage(ckpt_file_);
  if (!ckpt.empty()) {
    ByteReader body(nullptr, 0);
    if (!DecodeCheckpoint(ckpt, &body, &covered_lsn) || !checkpoint(body)) {
      return Status::Internal("the checkpoint does not decode");
    }
    last_recovery_.from_checkpoint = true;
    recoveries_from_checkpoint_->Increment();
  }

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
  return Status::OK();
}

}  // namespace dcp::store
