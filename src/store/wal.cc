#include "store/wal.h"

#include <utility>

namespace dcp::store {

namespace {

/// CRC over (type, len, payload): a frame whose *length* was torn fails
/// just like one whose payload was.
uint32_t FrameCrc(uint8_t type, const uint8_t* payload, uint32_t len) {
  uint8_t head[5];
  head[0] = type;
  for (int i = 0; i < 4; ++i) {
    head[1 + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  uint32_t crc = Crc32(head, sizeof(head));
  return Crc32(payload, len, crc);
}

}  // namespace

Wal::Wal(rt::Runtime* sim, SimDisk* disk, SimDisk::FileId file,
         WalOptions options)
    : sim_(sim), disk_(disk), file_(file), opt_(options) {
  obs::MetricsRegistry& m = sim_->metrics();
  records_ = m.counter("wal.records");
  record_bytes_ = m.counter("wal.record_bytes");
  commits_ = m.counter("wal.commits");
  batch_records_ = m.histogram("wal.batch_records",
                               {1, 2, 4, 8, 16, 32, 64});
}

uint64_t Wal::Append(uint8_t type, const std::vector<uint8_t>& payload,
                    Flush flush) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  ByteWriter frame;
  frame.U8(kMagic);
  frame.U8(type);
  frame.U32(len);
  frame.U32(FrameCrc(type, payload.data(), len));
  frame.Raw(payload.data(), payload.size());
  uint64_t end = disk_->Append(file_, frame.buffer());
  records_->Increment();
  record_bytes_->Increment(frame.size());
  ++records_since_sync_;
  if (flush == Flush::kLazy) {
    lazy_end_ = end;
    ScheduleLazyFlush();
  }
  return end;
}

void Wal::Commit(std::function<void()> done) {
  commits_->Increment();
  if (disk_->End(file_) == disk_->DurableEnd(file_)) {
    // Nothing to flush; complete asynchronously (uniform re-entrancy —
    // callers never see `done` run inside Commit). The epoch guard drops
    // it if the node crashes before the event fires.
    uint64_t epoch = epoch_;
    sim_->Schedule(0, [this, epoch, done = std::move(done)] {
      if (epoch == epoch_) done();
    });
    return;
  }
  waiters_.push_back({disk_->End(file_), std::move(done)});
  if (!sync_inflight_) IssueSync();
}

void Wal::IssueSync() {
  sync_inflight_ = true;
  batch_records_->Observe(static_cast<double>(records_since_sync_));
  records_since_sync_ = 0;
  uint64_t epoch = epoch_;
  disk_->Sync(file_, [this, epoch] {
    if (epoch != epoch_) return;
    sync_inflight_ = false;
    uint64_t durable = disk_->DurableEnd(file_);
    while (!waiters_.empty() && waiters_.front().lsn <= durable) {
      auto done = std::move(waiters_.front().done);
      waiters_.pop_front();
      done();
    }
    // Waiters past this barrier (they piled in while it was in flight)
    // get the next one immediately — the group-commit batch.
    if (!waiters_.empty() && !sync_inflight_) IssueSync();
    if (on_sync_) on_sync_();
  });
}

void Wal::ScheduleLazyFlush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  uint64_t epoch = epoch_;
  sim_->Schedule(opt_.flush_interval, [this, epoch] {
    if (epoch != epoch_) return;
    flush_scheduled_ = false;
    // Only a lazy record still short of the disk needs this sync; a
    // Flush::kNextSync record alone waits for another record's.
    if (!sync_inflight_ && lazy_end_ > disk_->DurableEnd(file_)) {
      IssueSync();
    }
  });
}

WalScanStats Wal::Scan(
    const std::function<void(uint64_t, uint8_t, ByteReader&)>& visit) const {
  const std::vector<uint8_t>& img = disk_->DurableImage(file_);
  const uint64_t base = disk_->BaseLsn(file_);
  WalScanStats stats;
  size_t pos = 0;
  while (img.size() - pos >= kHeaderSize) {
    const uint8_t* p = img.data() + pos;
    if (p[0] != kMagic) break;
    uint8_t type = p[1];
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(p[2 + i]) << (8 * i);
    }
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(p[6 + i]) << (8 * i);
    }
    if (pos + kHeaderSize + len > img.size()) break;  // Torn payload.
    const uint8_t* payload = p + kHeaderSize;
    if (FrameCrc(type, payload, len) != crc) break;
    ByteReader reader(payload, len);
    visit(base + pos, type, reader);
    pos += kHeaderSize + len;
    ++stats.records;
  }
  stats.bytes = pos;
  stats.torn_bytes = img.size() - pos;
  stats.valid_end_lsn = base + pos;
  return stats;
}

void Wal::TrimTorn(const WalScanStats& stats) {
  disk_->TruncateSuffix(file_, stats.valid_end_lsn);
}

void Wal::OnCrash() {
  ++epoch_;
  waiters_.clear();
  sync_inflight_ = false;
  flush_scheduled_ = false;
  records_since_sync_ = 0;
  lazy_end_ = 0;
}

}  // namespace dcp::store
