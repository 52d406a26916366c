#ifndef DCP_PROTOCOL_ACTION_CODEC_H_
#define DCP_PROTOCOL_ACTION_CODEC_H_

#include <cstdint>
#include <vector>

#include "protocol/messages.h"
#include "store/codec.h"

namespace dcp::protocol {

/// Field lists of a staged 2PC action (store/codec.h). The same bytes go
/// into the WAL's Stage record, the checkpoint and, nested as a Blob,
/// the wire's PrepareRequest. The scope of an epoch install is a trailer,
/// so a write or a group-wide install encodes byte-identically to the
/// pre-sharding format.
void Fields(auto& io, store::Of<ObjectAction> auto& a) {
  io(a.object, a.apply_update, a.update, a.update_target_version,
     a.mark_stale, a.desired_version, a.install_snapshot, a.snapshot_version,
     a.snapshot, a.propagate_to);
}
void Fields(auto& io, store::Of<StagedAction> auto& a) {
  io(a.install_epoch, a.epoch_number, a.epoch_list, a.objects,
     a.epoch_scope);
}

/// Serializes a staged 2PC action for the durable store, which treats it
/// as an opaque blob (store/durable_store.h keeps protocol types out of
/// the storage layer).
std::vector<uint8_t> EncodeStagedAction(const StagedAction& action);

/// Inverse of EncodeStagedAction. Returns false on a malformed blob
/// (which recovery treats as a fatal invariant violation — blobs are
/// CRC-protected by the log framing, so this never fires on tears).
bool DecodeStagedAction(const std::vector<uint8_t>& blob,
                        StagedAction* action);

}  // namespace dcp::protocol

#endif  // DCP_PROTOCOL_ACTION_CODEC_H_
