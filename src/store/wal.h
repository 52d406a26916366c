#ifndef DCP_STORE_WAL_H_
#define DCP_STORE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "store/codec.h"
#include "store/sim_disk.h"

namespace dcp::store {

/// When an appended record reaches the disk.
enum class Flush {
  kLazy,      ///< Within `flush_interval` at the latest (the lazy flush).
  kNextSync,  ///< With the next sync some other record needs; a crash
              ///< before that sync may lose it.
};

/// Tuning knobs for the log.
struct WalOptions {
  /// Records appended without an explicit Commit() (lazy bookkeeping —
  /// propagation-duty erasures, op-id watermarks) are flushed at most
  /// this much simulated time later, bounding the redo window.
  rt::Time flush_interval = 10.0;
};

/// What a recovery scan found in the durable image.
struct WalScanStats {
  uint64_t records = 0;
  uint64_t bytes = 0;       ///< Bytes of valid records.
  uint64_t torn_bytes = 0;  ///< Trailing bytes discarded (torn/corrupt).
  uint64_t valid_end_lsn = 0;
};

/// Write-ahead log over one SimDisk file.
///
/// Framing: each record is [magic u8][type u8][len u32][crc u32][payload].
/// The CRC chains over type, length and payload, so a torn tail — or a
/// record whose length field itself was torn — fails verification and the
/// scan stops at the last intact prefix. Bytes after a torn record are
/// unreachable by construction (a crash truncates the tail to a byte
/// prefix, never punches holes), so "stop at first bad frame" loses
/// nothing that was durable.
///
/// Group commit: Commit(done) registers a waiter for the current end LSN
/// and issues one barrier. Appends and Commits that arrive while that
/// barrier is in flight pile into the *next* one — a single sync then
/// retires the whole batch (the "wal.batch_records" histogram watches
/// this). Waiters die with the node on crash: an ack that was waiting on
/// durability is simply never sent, which is exactly the promise the
/// protocol needs.
class Wal {
 public:
  static constexpr uint8_t kMagic = 0xD7;
  static constexpr size_t kHeaderSize = 10;

  Wal(rt::Runtime* sim, SimDisk* disk, SimDisk::FileId file,
      WalOptions options);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one framed record; returns the end LSN after it. With
  /// Flush::kLazy it schedules a lazy flush, so even commit-less records
  /// become durable eventually.
  uint64_t Append(uint8_t type, const std::vector<uint8_t>& payload,
                  Flush flush = Flush::kLazy);

  /// `done` fires once everything appended so far is durable. Dropped on
  /// crash.
  void Commit(std::function<void()> done);

  uint64_t end_lsn() const { return disk_->End(file_); }
  uint64_t durable_end_lsn() const { return disk_->DurableEnd(file_); }
  uint64_t base_lsn() const { return disk_->BaseLsn(file_); }

  /// Hook run after each completed barrier (checkpoint trigger).
  void set_on_sync(std::function<void()> fn) { on_sync_ = std::move(fn); }

  /// Scans the durable image from the base LSN, invoking `visit(lsn,
  /// type, payload_reader)` for every intact record, stopping at the
  /// first torn or corrupt frame. Read-only; call TrimTorn afterwards
  /// before appending again.
  WalScanStats Scan(
      const std::function<void(uint64_t, uint8_t, ByteReader&)>& visit) const;

  /// Truncates the file to `valid_end_lsn` (drops torn trailing garbage
  /// so new records never land behind an undecodable frame).
  void TrimTorn(const WalScanStats& stats);

  /// Drops durable records below `lsn` (checkpoint took ownership).
  void TruncatePrefix(uint64_t lsn) { disk_->TruncatePrefix(file_, lsn); }

  /// Crash bookkeeping: waiters dropped, timers invalidated. The disk's
  /// own Crash() handles the bytes.
  void OnCrash();

 private:
  void IssueSync();
  void ScheduleLazyFlush();

  rt::Runtime* sim_;
  SimDisk* disk_;
  SimDisk::FileId file_;
  WalOptions opt_;
  std::function<void()> on_sync_;

  struct Waiter {
    uint64_t lsn;
    std::function<void()> done;
  };
  std::deque<Waiter> waiters_;
  bool sync_inflight_ = false;
  bool flush_scheduled_ = false;
  uint64_t epoch_ = 0;  ///< Invalidates callbacks/timers across crashes.
  uint64_t records_since_sync_ = 0;
  uint64_t lazy_end_ = 0;  ///< End LSN of the last Flush::kLazy record.

  obs::Counter* records_;
  obs::Counter* record_bytes_;
  obs::Counter* commits_;
  obs::Histogram* batch_records_;
};

}  // namespace dcp::store

#endif  // DCP_STORE_WAL_H_
