#ifndef DCP_STORAGE_VERSIONED_OBJECT_H_
#define DCP_STORAGE_VERSIONED_OBJECT_H_

#include <cstdint>
#include <map>
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
};

/// The replica-local copy of the data item: current contents, version
/// number, and a log of the updates that produced each version.
///
/// The log is what makes the paper's asynchronous propagation concrete
/// ("various logging techniques can be employed", Section 4.2): a current
/// replica ships the updates a stale replica is missing; if the log has
/// been truncated past the gap, it falls back to a full-state snapshot.
class VersionedObject {
 public:
  /// Starts at version 0 with `initial` contents (all replicas identical,
  /// per Section 4's initial conditions).
  explicit VersionedObject(std::vector<uint8_t> initial = {})
      : data_(std::move(initial)) {}

  Version version() const { return version_; }
  const std::vector<uint8_t>& data() const { return data_; }

  /// Applies one update, producing version `version() + 1`, and logs it.
  /// Partial updates beyond the current size grow the item (zero-filled
  /// gap), mirroring file-style writes.
  void Apply(Update update);

  /// Updates that move a replica from `from` to the current version, in
  /// application order. Fails with kNotFound if the log no longer reaches
  /// back to `from + 1` (use Snapshot() instead).
  [[nodiscard]] Result<std::vector<Update>> UpdatesSince(Version from) const;

  /// Full-state transfer: the current contents as a single total update.
  Update Snapshot() const;

  /// Installs a full snapshot carrying `version`.
  void InstallSnapshot(Version version, Update snapshot);

  /// Drops log entries for versions <= `before` (they can no longer be
  /// propagated incrementally).
  void TruncateLog(Version before);

  /// Number of retained log entries.
  size_t LogSize() const { return log_.size(); }

  /// FNV-1a hash of (version, contents) — convergence checks in tests.
  uint64_t Fingerprint() const;

 private:
  std::vector<uint8_t> data_;
  Version version_ = 0;
  std::map<Version, Update> log_;  ///< version produced -> update.
};

}  // namespace dcp::storage

#endif  // DCP_STORAGE_VERSIONED_OBJECT_H_
