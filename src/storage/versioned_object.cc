#include "storage/versioned_object.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dcp::storage {

void VersionedObject::Apply(Update update) {
  if (update.total) {
    data_ = update.bytes;
  } else {
    uint64_t end = update.offset + update.bytes.size();
    if (end > data_.size()) data_.resize(end, 0);
    std::copy(update.bytes.begin(), update.bytes.end(),
              data_.begin() + static_cast<ptrdiff_t>(update.offset));
  }
  ++version_;
  log_.emplace(version_, std::move(update));
}

Result<std::vector<Update>> VersionedObject::UpdatesSince(Version from) const {
  if (from >= version_) return std::vector<Update>{};
  // Need entries from+1 .. version_.
  auto it = log_.find(from + 1);
  if (it == log_.end()) {
    return Status::NotFound("update log truncated before version " +
                            std::to_string(from + 1));
  }
  std::vector<Update> out;
  for (; it != log_.end(); ++it) out.push_back(it->second);
  return out;
}

Update VersionedObject::Snapshot() const { return Update::Total(data_); }

void VersionedObject::InstallSnapshot(Version version, Update snapshot) {
  assert(snapshot.total);
  assert(version >= version_);
  data_ = std::move(snapshot.bytes);
  version_ = version;
  log_.clear();  // History before the snapshot is gone.
}

void VersionedObject::TruncateLog(Version before) {
  log_.erase(log_.begin(), log_.upper_bound(before));
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
