// Golden encodings: every wire body, the staged-action shapes, every WAL
// record payload and both checkpoint shapes, pinned to their exact bytes
// (size plus a 64-bit FNV-1a digest). The sim pins never see these bytes
// (the simulator passes payloads by pointer), so a change that moves a
// byte on the wire or on disk is caught here and nowhere else.
//
// A digest mismatch prints the encoding's hex, so a deliberate format
// change can be reviewed and re-pinned field by field.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "protocol/action_codec.h"
#include "protocol/cluster.h"
#include "protocol/messages.h"
#include "protocol/redo.h"
#include "protocol/wire_codec.h"
#include "sim/simulator.h"
#include "store/durable_store.h"

namespace dcp::protocol {
namespace {

using storage::Update;
using store::DurableStore;

struct Golden {
  const char* name;
  size_t size;
  uint64_t digest;
};

uint64_t Fnv64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<uint8_t> Text(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// `value`'s field-list encoding.
std::vector<uint8_t> Encoded(const auto& value) {
  store::ByteWriter w;
  store::Put{w}(value);
  return w.Take();
}

net::Message Request(const char* type, net::PayloadPtr payload) {
  net::Message msg;
  msg.src = 2;
  msg.dst = 5;
  msg.rpc_id = 77;
  msg.kind = net::Message::Kind::kRequest;
  msg.type = type;
  msg.payload = std::move(payload);
  return msg;
}

net::Message Response(const char* type, net::PayloadPtr payload,
                      Status status = Status::OK()) {
  net::Message msg;
  msg.src = 5;
  msg.dst = 2;
  msg.rpc_id = 78;
  msg.kind = net::Message::Kind::kResponse;
  msg.type = net::TypeName(type).Reply();
  msg.payload = std::move(payload);
  msg.status = std::move(status);
  return msg;
}

// --- the three staged-action shapes ----------------------------------------

StagedAction WriteAction() {
  StagedAction a;
  ObjectAction oa;
  oa.object = 3;
  oa.apply_update = true;
  oa.update = Update::Partial(4, {1, 2, 3});
  oa.update_target_version = 8;
  oa.propagate_to = NodeSet{6, 7};
  a.objects.push_back(oa);
  ObjectAction stale;
  stale.object = 4;
  stale.mark_stale = true;
  stale.desired_version = 11;
  a.objects.push_back(stale);
  return a;
}

StagedAction GroupInstall() {
  StagedAction a;
  a.install_epoch = true;
  a.epoch_number = 9;
  a.epoch_list = NodeSet{0, 1, 2, 4};
  ObjectAction oa;
  oa.object = 0;
  oa.mark_stale = true;
  oa.desired_version = 5;
  a.objects.push_back(oa);
  ObjectAction snap;
  snap.object = 1;
  snap.install_snapshot = true;
  snap.snapshot_version = 12;
  snap.snapshot = Update::Total({9, 9, 9});
  snap.propagate_to = NodeSet{3};
  a.objects.push_back(snap);
  return a;
}

StagedAction ScopedInstall() {
  StagedAction a = GroupInstall();
  a.epoch_scope = 17;
  return a;
}

// --- one message per wire body, plus the envelope variants -----------------

std::vector<std::pair<std::string, net::Message>> WireMessages() {
  std::vector<std::pair<std::string, net::Message>> out;
  auto add = [&out](std::string name, net::Message msg) {
    out.emplace_back(std::move(name), std::move(msg));
  };

  auto lock = std::make_shared<LockRequest>();
  lock->owner = {3, 41};
  lock->mode = LockMode::kExclusive;
  lock->object = 7;
  add("lock_request", Request(msg::kLock, lock));

  auto shared = std::make_shared<LockRequest>(*lock);
  shared->mode = LockMode::kShared;
  add("lock_request_shared", Request(msg::kLock, shared));

  auto granted = std::make_shared<LockResponse>();
  granted->state.node = 4;
  granted->state.version = 19;
  granted->state.dversion = 21;
  granted->state.stale = true;
  granted->state.elist = NodeSet{0, 2, 4};
  granted->state.enumber = 6;
  add("lock_response", Response(msg::kLock, granted));

  auto unlock = std::make_shared<UnlockRequest>();
  unlock->owner = {1, 9};
  add("unlock_request", Request(msg::kUnlock, unlock));
  add("ack_response",
      Response(msg::kUnlock, std::make_shared<AckResponse>()));

  auto fetch = std::make_shared<FetchRequest>();
  fetch->owner = {0, 5};
  fetch->object = 2;
  add("fetch_request", Request(msg::kFetch, fetch));

  auto fetched = std::make_shared<FetchResponse>();
  fetched->version = 44;
  fetched->data = {9, 8, 7};
  add("fetch_response", Response(msg::kFetch, fetched));

  auto prepare = std::make_shared<PrepareRequest>();
  prepare->owner = {2, 13};
  prepare->action = WriteAction();
  prepare->participants = NodeSet{0, 1, 2, 3};
  add("prepare_write", Request(msg::kPrepare, prepare));

  auto install = std::make_shared<PrepareRequest>(*prepare);
  install->action = ScopedInstall();
  add("prepare_scoped_install", Request(msg::kPrepare, install));

  auto commit = std::make_shared<CommitRequest>();
  commit->owner = {1, 2};
  add("commit_request", Request(msg::kCommit, commit));

  auto abort = std::make_shared<AbortRequest>();
  abort->owner = {3, 4};
  add("abort_request", Request(msg::kAbort, abort));

  auto outcome = std::make_shared<OutcomeRequest>();
  outcome->owner = {5, 6};
  add("outcome_request", Request(msg::kOutcome, outcome));

  auto decided = std::make_shared<OutcomeResponse>();
  decided->outcome = TxOutcome::kAborted;
  decided->is_coordinator = true;
  decided->in_progress = false;
  add("outcome_response", Response(msg::kOutcome, decided));

  add("epoch_poll_unscoped",
      Request(msg::kEpochPoll, std::make_shared<EpochPollRequest>()));
  auto scoped = std::make_shared<EpochPollRequest>();
  scoped->scope = 12;
  add("epoch_poll_scoped", Request(msg::kEpochPoll, scoped));

  auto polled = std::make_shared<EpochPollResponse>();
  polled->node = 3;
  polled->enumber = 9;
  polled->elist = NodeSet{1, 3};
  polled->objects.push_back(ObjectStateTuple{0, 5, 6, true});
  polled->objects.push_back(ObjectStateTuple{1, 7, 7, false});
  add("epoch_poll_response", Response(msg::kEpochPoll, polled));

  auto offer = std::make_shared<PropagationOffer>();
  offer->object = 1;
  offer->source_version = 12;
  offer->transfer_id = 99;
  add("prop_offer", Request(msg::kPropOffer, offer));

  auto verdict = std::make_shared<PropagationOfferReply>();
  verdict->verdict = PropagationVerdict::kPermitted;
  verdict->target_version = 10;
  add("prop_offer_reply", Response(msg::kPropOffer, verdict));

  auto data = std::make_shared<PropagationData>();
  data->object = 1;
  data->transfer_id = 99;
  data->snapshot = false;
  data->snapshot_version = 0;
  data->first_version = 11;
  data->updates.push_back(Update::Partial(2, {5, 5}));
  data->updates.push_back(Update::Total({6}));
  add("prop_data", Request(msg::kPropData, data));

  auto applied = std::make_shared<PropagationDataReply>();
  applied->new_version = 12;
  add("prop_data_reply", Response(msg::kPropData, applied));

  add("error_no_payload",
      Response(msg::kLock, nullptr, Status::Conflict("lock held by 3/12")));

  net::Message failed;
  failed.src = 1;
  failed.dst = 1;
  failed.rpc_id = 5;
  failed.kind = net::Message::Kind::kCallFailed;
  failed.type = net::TypeName(msg::kLock).Reply();
  failed.status = Status::CallFailed("node 2 unreachable");
  add("call_failed", failed);

  // A read's lock round: the request names the member whose grant carries
  // its replica's data.
  auto named = std::make_shared<LockRequest>(*shared);
  named->data_from = 4;
  add("lock_request_data_from", Request(msg::kLock, named));

  auto with_data = std::make_shared<LockResponse>(*granted);
  with_data->state.stale = false;
  with_data->data = std::vector<uint8_t>{9, 8, 7};
  add("lock_response_data", Response(msg::kLock, with_data));

  // Phase 2 carrying forget notices for the coordinator's earlier
  // transactions.
  auto commit_forget = std::make_shared<CommitRequest>(*commit);
  commit_forget->forget = {7, 8};
  add("commit_request_forget", Request(msg::kCommit, commit_forget));

  auto abort_forget = std::make_shared<AbortRequest>(*abort);
  abort_forget->forget = {9};
  add("abort_request_forget", Request(msg::kAbort, abort_forget));
  return out;
}

// --- WAL record payloads, read back through Wal::Scan ----------------------

std::vector<std::pair<std::string, std::vector<uint8_t>>> WalRecords() {
  sim::Simulator sim;
  store::DurabilityOptions options;
  options.enabled = true;
  DurableStore store(&sim, options);
  redo::Append(store, redo::Update{3, 8, Update::Partial(4, {1, 2, 3})});
  redo::Append(store, redo::Snapshot{1, 12, {9, 9, 9}});
  redo::Append(store, redo::MarkStale{0, 5});
  redo::Append(store, redo::ClearStale{4});
  redo::Append(store, redo::EpochInstall{9, NodeSet{0, 1, 2, 4}});
  redo::Append(store,
               redo::Stage{{2, 13}, NodeSet{0, 1, 2, 3}, WriteAction()});
  redo::Append(store, redo::Resolve{{2, 13}, TxOutcome::kCommitted});
  redo::Append(store, redo::PropAdd{3, NodeSet{6, 7}});
  redo::Append(store, redo::PropDone{3, 6});
  redo::Append(store, redo::OpWatermark{1 + redo::kOpIdStride});
  redo::Append(store, redo::Decide{{4, 77}, TxOutcome::kAborted});
  redo::Append(store, redo::ObjectEpochInstall{17, 10, NodeSet{1, 2, 3}});
  store.Commit([] {});
  sim.Run();

  std::vector<std::pair<std::string, std::vector<uint8_t>>> out;
  store.wal().Scan([&out](uint64_t, uint8_t type, store::ByteReader& r) {
    std::vector<uint8_t> payload;
    while (r.remaining() > 0) payload.push_back(r.U8());
    out.emplace_back("wal_type_" + std::to_string(type), std::move(payload));
  });
  return out;
}

// --- checkpoints -----------------------------------------------------------

/// A checkpoint of node 0 of a quiet durable deployment that holds every
/// kind of state a checkpoint records: its lineages re-formed, a written
/// and a stale replica, a staged action, outcomes and a duty. The node
/// gets them by replaying its log through a crash and recovery.
std::vector<uint8_t> NodeCheckpoint(bool sharded, uint64_t covered_lsn) {
  ClusterOptions opts;
  opts.num_nodes = 5;
  opts.num_objects = 2;
  opts.coterie = CoterieKind::kMajority;
  opts.initial_value = Text("obj");
  opts.durability.enabled = true;
  opts.durability.crash.tear_probability = 0;
  opts.sharded = sharded;
  opts.replication_factor = 5;
  Cluster cluster(opts);
  store::DurableStore& store = *cluster.node(0).durable_store();
  if (sharded) {
    redo::Append(store, redo::ObjectEpochInstall{0, 3, NodeSet{0, 2}});
    redo::Append(store, redo::ObjectEpochInstall{1, 5, NodeSet{0, 2, 4}});
  } else {
    redo::Append(store, redo::EpochInstall{7, NodeSet{0, 2, 4}});
  }
  redo::Append(store, redo::Update{0, 1, Update::Partial(1, {'a'})});
  redo::Append(store, redo::MarkStale{1, 9});
  redo::Append(store, redo::Stage{{2, 42}, NodeSet{0, 1, 2}, WriteAction()});
  redo::Append(store, redo::Decide{{3, 17}, TxOutcome::kAborted});
  redo::Append(store, redo::Decide{{1, 4}, TxOutcome::kCommitted});
  redo::Append(store, redo::PropAdd{0, NodeSet{1, 3}});
  bool synced = false;
  store.Commit([&synced] { synced = true; });
  while (!synced) cluster.RunFor(1);
  cluster.Crash(0);
  cluster.Recover(0);
  const ReplicaNode& node = cluster.node(0);
  return DurableStore::EncodeCheckpoint(
      covered_lsn, [&node](store::ByteWriter& w) { node.WriteCheckpoint(w); });
}

std::vector<std::pair<std::string, std::vector<uint8_t>>> AllEncodings() {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> out;
  for (const auto& [name, msg] : WireMessages()) {
    out.emplace_back("wire_" + name, EncodeMessage(msg));
  }
  out.emplace_back("action_write", Encoded(WriteAction()));
  out.emplace_back("action_group_install", Encoded(GroupInstall()));
  out.emplace_back("action_scoped_install", Encoded(ScopedInstall()));
  for (auto& record : WalRecords()) out.push_back(std::move(record));
  out.emplace_back("checkpoint_group", NodeCheckpoint(false, 4096));
  out.emplace_back("checkpoint_sharded", NodeCheckpoint(true, 8192));
  return out;
}

constexpr Golden kGolden[] = {
    {"wire_lock_request", 52, 0xb5c2254e7c29b4d1ull},
    {"wire_lock_request_shared", 52, 0x23bc0cc57927cdeull},
    {"wire_lock_response", 86, 0x852fab02a2d17278ull},
    {"wire_unlock_request", 49, 0xd098c9ef21fa5ddcull},
    {"wire_ack_response", 43, 0x20a39459f4288e4bull},
    {"wire_fetch_request", 52, 0x282fb303bbf4c36cull},
    {"wire_fetch_response", 57, 0x6c5e17b78109c3dbull},
    {"wire_prepare_write", 228, 0x21d8ee28eacfa9a9ull},
    {"wire_prepare_scoped_install", 245, 0xb5fa09b3ad5ee790ull},
    {"wire_commit_request", 53, 0xdb0d42cbf8b6463ull},
    {"wire_abort_request", 52, 0xa0b8b5662f1bf900ull},
    {"wire_outcome_request", 54, 0xc6fc1012370bf2dull},
    {"wire_outcome_response", 51, 0x366d7368936316e6ull},
    {"wire_epoch_poll_unscoped", 41, 0x7a126cf009c4f4aeull},
    {"wire_epoch_poll_scoped", 46, 0xeb8cf5723ef73ee1ull},
    {"wire_epoch_poll_response", 117, 0x5a130c572849e106ull},
    {"wire_prop_offer", 61, 0x80066de64bda5843ull},
    {"wire_prop_offer_reply", 56, 0x71fe57f5d239e244ull},
    {"wire_prop_data", 102, 0x2b9ff89635d07f03ull},
    {"wire_prop_data_reply", 54, 0xbc1c348d87c6db79ull},
    {"wire_error_no_payload", 58, 0xb57f8eb8bfbd8e14ull},
    {"wire_call_failed", 59, 0x3307ae956bd7d5bfull},
    {"wire_lock_request_data_from", 57, 0xf72b41ea9854adf9ull},
    {"wire_lock_response_data", 94, 0x9a05eac0cd1ee4d1ull},
    {"wire_commit_request_forget", 73, 0xf5373ec62795357eull},
    {"wire_abort_request_forget", 64, 0x273318e0b6286898ull},
    {"action_write", 150, 0xe6d004464bdacd31ull},
    {"action_group_install", 162, 0xa4174b4fd3aa79d3ull},
    {"action_scoped_install", 167, 0x7b36da91860603b7ull},
    {"wal_type_1", 28, 0x5d77ccfcba75b5d3ull},
    {"wal_type_2", 19, 0x2d9de86c4fcff6acull},
    {"wal_type_3", 12, 0xb981cdace663f1f0ull},
    {"wal_type_4", 4, 0xcd3ac65e44f721b1ull},
    {"wal_type_5", 28, 0xa191b40c9ed4485full},
    {"wal_type_6", 186, 0xf524cfed21b01314ull},
    {"wal_type_7", 13, 0x56b7cdacb98076a1ull},
    {"wal_type_8", 16, 0x8e91a447ab3aacb5ull},
    {"wal_type_9", 8, 0x7e2b7092dc71880ull},
    {"wal_type_10", 8, 0x4f1facb36efec27full},
    {"wal_type_11", 13, 0x6cf7b220ba97b11aull},
    {"wal_type_12", 28, 0x96eebc997a7027dull},
    {"checkpoint_group", 357, 0x56eed9335610dc2aull},
    {"checkpoint_sharded", 385, 0xafbe1b6ce216998ull},
};

TEST(CodecGoldenTest, EveryEncodingIsPinned) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> encodings =
      AllEncodings();
  ASSERT_EQ(encodings.size(), std::size(kGolden));
  for (size_t i = 0; i < encodings.size(); ++i) {
    const auto& [name, bytes] = encodings[i];
    const Golden& g = kGolden[i];
    EXPECT_EQ(name, g.name);
    EXPECT_TRUE(bytes.size() == g.size && Fnv64(bytes) == g.digest)
        << "{\"" << name << "\", " << bytes.size() << ", 0x" << std::hex
        << Fnv64(bytes) << std::dec << "ull},  // " << Hex(bytes);
  }
}

// A strict prefix of a valid frame must never decode to something else:
// it either fails, or it ends exactly at a trailer boundary and decodes to
// the message without that trailer, whose encoding is the prefix itself.
TEST(CodecGoldenTest, WirePrefixesFailOrEndAtATrailer) {
  size_t trailer_prefixes = 0;
  for (const auto& [name, msg] : WireMessages()) {
    const std::vector<uint8_t> wire = EncodeMessage(msg);
    ASSERT_FALSE(wire.empty()) << name;
    net::Message out;
    ASSERT_TRUE(DecodeMessage(wire.data(), wire.size(), &out)) << name;
    EXPECT_EQ(EncodeMessage(out), wire) << name;
    for (size_t len = 0; len < wire.size(); ++len) {
      if (!DecodeMessage(wire.data(), len, &out)) continue;
      ++trailer_prefixes;
      const std::vector<uint8_t> prefix(wire.begin(), wire.begin() + len);
      EXPECT_EQ(EncodeMessage(out), prefix) << name << " len=" << len;
    }
  }
  // The golden messages with a wire trailer: the scoped poll, the lock
  // request naming a data sender, the grant carrying data and the commit
  // and abort carrying forget notices.
  EXPECT_EQ(trailer_prefixes, 5u);
}

// The body must end the frame: a frame with bytes appended is refused,
// never decoded as the frame without them (a stray tail could otherwise
// be misread as a trailer).
TEST(CodecGoldenTest, WireFramesWithTrailingBytesAreRefused) {
  const std::vector<std::vector<uint8_t>> tails = {
      {0x00}, {0x01}, {0xFF}, {0x00, 0x00}, {0x01, 0x00}, {0xFF, 0xFF}};
  for (const auto& [name, msg] : WireMessages()) {
    for (const std::vector<uint8_t>& tail : tails) {
      std::vector<uint8_t> wire = EncodeMessage(msg);
      wire.insert(wire.end(), tail.begin(), tail.end());
      net::Message out;
      EXPECT_FALSE(DecodeMessage(wire.data(), wire.size(), &out))
          << name << " + " << Hex(tail);
    }
  }
}

}  // namespace
}  // namespace dcp::protocol
