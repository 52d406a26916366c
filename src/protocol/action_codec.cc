#include "protocol/action_codec.h"

namespace dcp::protocol {

using store::ByteReader;
using store::ByteWriter;
using store::GetNodeSet;
using store::GetUpdate;
using store::PutNodeSet;
using store::PutUpdate;

std::vector<uint8_t> EncodeStagedAction(const StagedAction& action) {
  ByteWriter w;
  w.Bool(action.install_epoch);
  w.U64(action.epoch_number);
  PutNodeSet(w, action.epoch_list);
  w.U32(static_cast<uint32_t>(action.objects.size()));
  for (const ObjectAction& oa : action.objects) {
    w.U32(oa.object);
    w.Bool(oa.apply_update);
    PutUpdate(w, oa.update);
    w.U64(oa.update_target_version);
    w.Bool(oa.mark_stale);
    w.U64(oa.desired_version);
    w.Bool(oa.install_snapshot);
    w.U64(oa.snapshot_version);
    PutUpdate(w, oa.snapshot);
    PutNodeSet(w, oa.propagate_to);
  }
  // Backward-compatible trailer: a scoped epoch install (per-object epoch
  // lineages, sharded deployments) appends its scope after the object list.
  // Group-mode actions never emit it, so their encoding — and every WAL /
  // checkpoint byte derived from it — is unchanged from the pre-sharding
  // format.
  if (action.epoch_scope) {
    w.Bool(true);
    w.U32(*action.epoch_scope);
  }
  return w.Take();
}

bool DecodeStagedAction(const std::vector<uint8_t>& blob,
                        StagedAction* action) {
  ByteReader r(blob);
  action->install_epoch = r.Bool();
  action->epoch_number = r.U64();
  action->epoch_list = GetNodeSet(r);
  uint32_t count = r.U32();
  action->objects.clear();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ObjectAction oa;
    oa.object = r.U32();
    oa.apply_update = r.Bool();
    oa.update = GetUpdate(r);
    oa.update_target_version = r.U64();
    oa.mark_stale = r.Bool();
    oa.desired_version = r.U64();
    oa.install_snapshot = r.Bool();
    oa.snapshot_version = r.U64();
    oa.snapshot = GetUpdate(r);
    oa.propagate_to = GetNodeSet(r);
    action->objects.push_back(std::move(oa));
  }
  action->epoch_scope.reset();
  if (r.ok() && r.remaining() > 0) {
    bool scoped = r.Bool();
    ObjectId object = r.U32();
    if (scoped) action->epoch_scope = object;
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace dcp::protocol
