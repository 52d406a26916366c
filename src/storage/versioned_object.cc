#include "storage/versioned_object.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dcp::storage {

void VersionedObject::Apply(Update update) {
  ++version_;
  if (update.total) {
    // Its charge equals the snapshot it leaves behind, so no gap that
    // holds it is kept and the log empties. The bytes are copied into the
    // value's buffer rather than moved, which frees the update's buffer
    // for reuse; a move, which frees the value's old buffer instead, left
    // sock_partial_hot's peak RSS where the unbounded log had it.
    data_ = update.bytes;
    log_.clear();
    log_charge_ = 0;
    return;
  }
  uint64_t end = update.offset + update.bytes.size();
  if (end > data_.size()) data_.resize(end, 0);
  std::copy(update.bytes.begin(), update.bytes.end(),
            data_.begin() + static_cast<ptrdiff_t>(update.offset));
  log_charge_ += update.Charge();
  log_.push_back(std::move(update));
  while (log_charge_ >= SnapshotCharge()) {
    log_charge_ -= log_.front().Charge();
    log_.pop_front();
  }
}

Result<std::vector<Update>> VersionedObject::UpdatesSince(Version from) const {
  if (from >= version_) return std::vector<Update>{};
  // Need entries from+1 .. version_, the last version_ - from of the log.
  if (version_ - from > log_.size()) {
    return Status::NotFound("update log truncated before version " +
                            std::to_string(from + 1));
  }
  return std::vector<Update>(
      log_.end() - static_cast<ptrdiff_t>(version_ - from), log_.end());
}

Update VersionedObject::Snapshot() const { return Update::Total(data_); }

void VersionedObject::InstallSnapshot(Version version, Update snapshot) {
  assert(snapshot.total);
  assert(version >= version_);
  data_ = std::move(snapshot.bytes);
  version_ = version;
  log_.clear();  // History before the snapshot is gone.
  log_charge_ = 0;
}

uint64_t VersionedObject::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(version_ >> (8 * i)));
  for (uint8_t b : data_) mix(b);
  return h;
}

}  // namespace dcp::storage
