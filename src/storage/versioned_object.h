#ifndef DCP_STORAGE_VERSIONED_OBJECT_H_
#define DCP_STORAGE_VERSIONED_OBJECT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace dcp::storage {

/// Version numbers. Version 0 is the initial, empty-history state.
using Version = uint64_t;

/// One write's effect on the data item.
///
/// The paper distinguishes *total* writes (replace the whole value; the
/// setting of the original grid protocol) from *partial* writes (update a
/// portion of the item; e.g. a file system). A partial update patches a
/// byte range; a total update replaces the contents outright.
struct Update {
  bool total = false;
  uint64_t offset = 0;            ///< Ignored for total updates.
  std::vector<uint8_t> bytes;

  static Update Total(std::vector<uint8_t> value) {
    Update u;
    u.total = true;
    u.bytes = std::move(value);
    return u;
  }
  static Update Partial(uint64_t offset, std::vector<uint8_t> bytes) {
    Update u;
    u.offset = offset;
    u.bytes = std::move(bytes);
    return u;
  }

  /// An encoded update's bytes besides its payload: the total flag (1),
  /// the offset (8) and the length prefix (4) of store/codec.h's field
  /// list.
  static constexpr uint64_t kHeaderBytes = 13;

  /// Bytes this update adds to a propagation body.
  uint64_t Charge() const { return kHeaderBytes + bytes.size(); }
};

/// The replica-local copy of the data item: current contents, version
/// number, and a log of the updates that produced the latest versions.
///
/// The log is what makes the paper's asynchronous propagation concrete
/// ("various logging techniques can be employed", Section 4.2): a current
/// replica ships the updates a stale replica is missing, or a snapshot
/// when its log does not reach back that far. The log exists only to make
/// the first cheaper than the second, so after every Apply it keeps the
/// longest suffix whose charge (the sum of Update::Charge) is below
/// SnapshotCharge(). A total update is thus never logged. A dropped gap
/// cost at least a snapshot, and later updates add their charge to the
/// gap but at most their length to the value, so a target is never sent
/// more than an unbounded log would send it, unless a write past the end
/// zero-filled a hole (DESIGN.md §2).
class VersionedObject {
 public:
  /// Starts at version 0 with `initial` contents (all replicas identical,
  /// per Section 4's initial conditions).
  explicit VersionedObject(std::vector<uint8_t> initial = {})
      : data_(std::move(initial)) {}

  Version version() const { return version_; }
  const std::vector<uint8_t>& data() const { return data_; }

  /// Applies one update, producing version `version() + 1`, logs it, and
  /// cuts the log to the suffix cheaper than a snapshot. Partial updates
  /// beyond the current size grow the item (zero-filled gap), mirroring
  /// file-style writes.
  void Apply(Update update);

  /// Updates that move a replica from `from` to the current version, in
  /// application order. Fails with kNotFound if the log no longer reaches
  /// back to `from + 1`: that gap would cost at least Snapshot(), which is
  /// what to send instead.
  [[nodiscard]] Result<std::vector<Update>> UpdatesSince(Version from) const;

  /// Full-state transfer: the current contents as a single total update.
  Update Snapshot() const;

  /// Installs a full snapshot carrying `version`.
  void InstallSnapshot(Version version, Update snapshot);

  /// Number of retained log entries.
  size_t LogSize() const { return log_.size(); }

  /// What the retained log would add to a propagation body; always below
  /// SnapshotCharge().
  uint64_t LogCharge() const { return log_charge_; }

  /// What Snapshot() adds to a propagation body.
  uint64_t SnapshotCharge() const {
    return Update::kHeaderBytes + data_.size();
  }

  /// FNV-1a hash of (version, contents) — convergence checks in tests.
  uint64_t Fingerprint() const;

 private:
  std::vector<uint8_t> data_;
  Version version_ = 0;
  /// The updates that produced versions version_ - log_.size() + 1
  /// through version_, oldest first.
  std::deque<Update> log_;
  uint64_t log_charge_ = 0;  ///< Sum of the entries' charges.
};

}  // namespace dcp::storage

#endif  // DCP_STORAGE_VERSIONED_OBJECT_H_
