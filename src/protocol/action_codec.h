#ifndef DCP_PROTOCOL_ACTION_CODEC_H_
#define DCP_PROTOCOL_ACTION_CODEC_H_

#include "protocol/messages.h"
#include "store/codec.h"

namespace dcp::protocol {

/// Field lists of a staged 2PC action (store/codec.h). The same bytes go,
/// nested as a Blob, into the Stage redo record (in the WAL and in a
/// checkpoint) and the wire's PrepareRequest. The scope of an epoch
/// install is a trailer, so a write or a group-wide install encodes
/// byte-identically to the pre-sharding format.
void Fields(auto& io, store::Of<ObjectAction> auto& a) {
  io(a.object, a.apply_update, a.update, a.update_target_version,
     a.mark_stale, a.desired_version, a.install_snapshot, a.snapshot_version,
     a.snapshot, a.propagate_to);
}
void Fields(auto& io, store::Of<StagedAction> auto& a) {
  io(a.install_epoch, a.epoch_number, a.epoch_list, a.objects,
     a.epoch_scope);
}

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_ACTION_CODEC_H_
