#include "protocol/wire_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "protocol/messages.h"

namespace dcp::protocol {
namespace {

using storage::Update;

/// Encodes `msg`, decodes the bytes, and returns the round-tripped copy
/// (failing the test on either direction).
net::Message RoundTrip(const net::Message& msg) {
  std::vector<uint8_t> wire = EncodeMessage(msg);
  EXPECT_FALSE(wire.empty()) << "unencodable message type " << msg.type.str();
  net::Message out;
  EXPECT_TRUE(DecodeMessage(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.src, msg.src);
  EXPECT_EQ(out.dst, msg.dst);
  EXPECT_EQ(out.rpc_id, msg.rpc_id);
  EXPECT_EQ(out.kind, msg.kind);
  EXPECT_EQ(out.type, msg.type);
  EXPECT_EQ(out.status.code(), msg.status.code());
  EXPECT_EQ(out.status.message(), msg.status.message());
  return out;
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
  msg.rpc_id = 77;
  msg.kind = net::Message::Kind::kResponse;
  msg.type = net::TypeName(type).Reply();
  msg.payload = std::move(payload);
  msg.status = std::move(status);
  return msg;
}

TEST(WireCodecTest, LockRequestRoundTrips) {
  auto p = std::make_shared<LockRequest>();
  p->owner = {3, 41};
  p->mode = LockMode::kShared;
  p->object = 7;
  p->op_started = 123.456;
  net::Message out = RoundTrip(Request(msg::kLock, p));
  const auto& q = net::As<LockRequest>(out.payload);
  EXPECT_EQ(q.owner.coordinator, 3u);
  EXPECT_EQ(q.owner.operation_id, 41u);
  EXPECT_EQ(q.mode, LockMode::kShared);
  EXPECT_EQ(q.object, 7u);
  EXPECT_DOUBLE_EQ(q.op_started, 123.456);
  EXPECT_FALSE(q.data_from.has_value());

  p->data_from = 5;
  out = RoundTrip(Request(msg::kLock, p));
  EXPECT_EQ(net::As<LockRequest>(out.payload).data_from, NodeId{5});
}

TEST(WireCodecTest, LockResponseRoundTrips) {
  auto p = std::make_shared<LockResponse>();
  p->state.node = 4;
  p->state.version = 19;
  p->state.dversion = 21;
  p->state.stale = true;
  p->state.elist = NodeSet{0, 2, 4};
  p->state.enumber = 6;
  net::Message out = RoundTrip(Response(msg::kLock, p));
  const auto& q = net::As<LockResponse>(out.payload);
  EXPECT_EQ(q.state.node, 4u);
  EXPECT_EQ(q.state.version, 19u);
  EXPECT_EQ(q.state.dversion, 21u);
  EXPECT_TRUE(q.state.stale);
  EXPECT_EQ(q.state.elist.ToVector(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(q.state.enumber, 6u);
  EXPECT_FALSE(q.data.has_value());

  // Present but empty is not absent: an empty object still answers.
  p->data = std::vector<uint8_t>{};
  out = RoundTrip(Response(msg::kLock, p));
  const auto& empty = net::As<LockResponse>(out.payload);
  ASSERT_TRUE(empty.data.has_value());
  EXPECT_TRUE(empty.data->empty());
}

TEST(WireCodecTest, UnlockAndAckRoundTrip) {
  auto p = std::make_shared<UnlockRequest>();
  p->owner = {1, 9};
  net::Message out = RoundTrip(Request(msg::kUnlock, p));
  EXPECT_EQ(net::As<UnlockRequest>(out.payload).owner.operation_id, 9u);

  net::Message ack = RoundTrip(Response(msg::kUnlock,
                                        std::make_shared<AckResponse>()));
  EXPECT_NE(dynamic_cast<const AckResponse*>(ack.payload.get()), nullptr);
}

TEST(WireCodecTest, FetchRoundTrips) {
  auto req = std::make_shared<FetchRequest>();
  req->owner = {0, 5};
  req->object = 2;
  net::Message out = RoundTrip(Request(msg::kFetch, req));
  EXPECT_EQ(net::As<FetchRequest>(out.payload).object, 2u);

  auto resp = std::make_shared<FetchResponse>();
  resp->version = 44;
  resp->data = {9, 8, 7};
  out = RoundTrip(Response(msg::kFetch, resp));
  const auto& q = net::As<FetchResponse>(out.payload);
  EXPECT_EQ(q.version, 44u);
  EXPECT_EQ(q.data, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(WireCodecTest, PrepareRequestRoundTripsStagedAction) {
  auto p = std::make_shared<PrepareRequest>();
  p->owner = {2, 13};
  p->participants = NodeSet{0, 1, 2, 3};
  p->action.install_epoch = true;
  p->action.epoch_number = 3;
  p->action.epoch_list = NodeSet{0, 1, 2};
  ObjectAction oa;
  oa.object = 1;
  oa.apply_update = true;
  oa.update = Update::Partial(4, {1, 2, 3});
  oa.update_target_version = 8;
  oa.mark_stale = true;
  oa.desired_version = 8;
  oa.propagate_to = NodeSet{3};
  p->action.objects.push_back(oa);

  net::Message out = RoundTrip(Request(msg::kPrepare, p));
  const auto& q = net::As<PrepareRequest>(out.payload);
  EXPECT_TRUE(q.action.install_epoch);
  EXPECT_EQ(q.action.epoch_number, 3u);
  EXPECT_EQ(q.action.epoch_list.ToVector(), (std::vector<NodeId>{0, 1, 2}));
  ASSERT_EQ(q.action.objects.size(), 1u);
  EXPECT_TRUE(q.action.objects[0].apply_update);
  EXPECT_FALSE(q.action.objects[0].update.total);
  EXPECT_EQ(q.action.objects[0].update.offset, 4u);
  EXPECT_EQ(q.action.objects[0].update.bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(q.participants.ToVector(), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_FALSE(q.action.epoch_scope.has_value());

  // A scoped install names its lineage in a trailer.
  p->action.epoch_scope = 6;
  out = RoundTrip(Request(msg::kPrepare, p));
  EXPECT_EQ(net::As<PrepareRequest>(out.payload).action.epoch_scope,
            LineageScope(6));
}

TEST(WireCodecTest, PrepareCarriesThePolledStateInATrailer) {
  auto p = std::make_shared<PrepareRequest>();
  p->owner = {2, 13};
  p->participants = NodeSet{0, 1};
  p->action.install_epoch = true;
  p->action.epoch_number = 3;
  const std::vector<uint8_t> without =
      EncodeMessage(Request(msg::kPrepare, p));
  p->expect.push_back(ObjectStateTuple{0, 5, 6, true});
  p->expect.push_back(ObjectStateTuple{1, 7, 0, false});
  const std::vector<uint8_t> with = EncodeMessage(Request(msg::kPrepare, p));

  net::Message out = RoundTrip(Request(msg::kPrepare, p));
  const auto& q = net::As<PrepareRequest>(out.payload);
  ASSERT_EQ(q.expect.size(), 2u);
  EXPECT_EQ(q.expect[0].dversion, 6u);
  EXPECT_TRUE(q.expect[0].stale);
  EXPECT_EQ(q.expect[1].version, 7u);

  // An empty list adds no byte: the frame without it is a prefix of the
  // frame with it, and decodes to an empty list.
  ASSERT_EQ(with.size(), without.size() + 4 + 2 * 21);
  EXPECT_TRUE(std::equal(without.begin(), without.end(), with.begin()));
  ASSERT_TRUE(DecodeMessage(without.data(), without.size(), &out));
  EXPECT_TRUE(net::As<PrepareRequest>(out.payload).expect.empty());
}

TEST(WireCodecTest, TwoPhaseControlMessagesRoundTrip) {
  auto c = std::make_shared<CommitRequest>();
  c->owner = {1, 2};
  EXPECT_EQ(net::As<CommitRequest>(
                RoundTrip(Request(msg::kCommit, c)).payload).owner.coordinator,
            1u);

  auto a = std::make_shared<AbortRequest>();
  a->owner = {3, 4};
  EXPECT_EQ(net::As<AbortRequest>(
                RoundTrip(Request(msg::kAbort, a)).payload).owner.operation_id,
            4u);

  auto o = std::make_shared<OutcomeRequest>();
  o->owner = {5, 6};
  RoundTrip(Request(msg::kOutcome, o));

  auto r = std::make_shared<OutcomeResponse>();
  r->outcome = TxOutcome::kCommitted;
  r->is_coordinator = true;
  r->in_progress = false;
  net::Message out = RoundTrip(Response(msg::kOutcome, r));
  const auto& q = net::As<OutcomeResponse>(out.payload);
  EXPECT_EQ(q.outcome, TxOutcome::kCommitted);
  EXPECT_TRUE(q.is_coordinator);
}

TEST(WireCodecTest, EpochPollRoundTrips) {
  // The lineage scope is a trailer: a group-wide poll stays a bare tag
  // byte, a scoped one appends (true, object).
  auto group = std::make_shared<EpochPollRequest>();
  auto scoped = std::make_shared<EpochPollRequest>();
  scoped->scope = 12;
  EXPECT_FALSE(net::As<EpochPollRequest>(
                   RoundTrip(Request(msg::kEpochPoll, group)).payload)
                   .scope.has_value());
  EXPECT_EQ(net::As<EpochPollRequest>(
                RoundTrip(Request(msg::kEpochPoll, scoped)).payload)
                .scope,
            LineageScope(12));
  EXPECT_EQ(EncodeMessage(Request(msg::kEpochPoll, scoped)).size(),
            EncodeMessage(Request(msg::kEpochPoll, group)).size() + 5);

  auto p = std::make_shared<EpochPollResponse>();
  p->node = 3;
  p->enumber = 9;
  p->elist = NodeSet{1, 3};
  p->objects.push_back(ObjectStateTuple{0, 5, 6, true});
  p->objects.push_back(ObjectStateTuple{1, 7, 7, false});
  net::Message out = RoundTrip(Response(msg::kEpochPoll, p));
  const auto& q = net::As<EpochPollResponse>(out.payload);
  ASSERT_EQ(q.objects.size(), 2u);
  EXPECT_EQ(q.objects[0].dversion, 6u);
  EXPECT_TRUE(q.objects[0].stale);
  EXPECT_EQ(q.objects[1].version, 7u);
}

TEST(WireCodecTest, PropagationRoundTrips) {
  auto offer = std::make_shared<PropagationOffer>();
  offer->object = 1;
  offer->source_version = 12;
  offer->transfer_id = 99;
  RoundTrip(Request(msg::kPropOffer, offer));

  auto verdict = std::make_shared<PropagationOfferReply>();
  verdict->verdict = PropagationVerdict::kPermitted;
  verdict->target_version = 10;
  net::Message verdict_out = RoundTrip(Response(msg::kPropOffer, verdict));
  const auto& v = net::As<PropagationOfferReply>(verdict_out.payload);
  EXPECT_EQ(v.verdict, PropagationVerdict::kPermitted);
  EXPECT_EQ(v.target_version, 10u);

  auto data = std::make_shared<PropagationData>();
  data->object = 1;
  data->transfer_id = 99;
  data->snapshot = true;
  data->snapshot_version = 12;
  data->updates.push_back(Update::Total({5, 5}));
  net::Message data_out = RoundTrip(Request(msg::kPropData, data));
  const auto& d = net::As<PropagationData>(data_out.payload);
  ASSERT_EQ(d.updates.size(), 1u);
  EXPECT_TRUE(d.updates[0].total);
  EXPECT_EQ(d.updates[0].bytes, (std::vector<uint8_t>{5, 5}));

  auto reply = std::make_shared<PropagationDataReply>();
  reply->new_version = 12;
  EXPECT_EQ(net::As<PropagationDataReply>(
                RoundTrip(Response(msg::kPropData, reply)).payload).new_version,
            12u);
}

TEST(WireCodecTest, ErrorStatusSurvivesTheWire) {
  net::Message msg = Response(msg::kLock, nullptr,
                              Status::Conflict("lock held by 3/12"));
  net::Message out = RoundTrip(msg);
  EXPECT_TRUE(out.status.IsConflict());
  EXPECT_EQ(out.status.message(), "lock held by 3/12");
  EXPECT_EQ(out.payload, nullptr);
}

TEST(WireCodecTest, CallFailedNotificationRoundTrips) {
  net::Message msg;
  msg.src = 1;
  msg.dst = 1;
  msg.rpc_id = 5;
  msg.kind = net::Message::Kind::kCallFailed;
  msg.type = net::TypeName(msg::kLock).Reply();
  msg.status = Status::CallFailed("node 2 unreachable");
  net::Message out = RoundTrip(msg);
  EXPECT_TRUE(out.status.IsCallFailed());
}

TEST(WireCodecTest, RejectsMalformedInput) {
  net::Message msg = Request(msg::kLock, std::make_shared<LockRequest>());
  std::vector<uint8_t> wire = EncodeMessage(msg);
  ASSERT_FALSE(wire.empty());

  net::Message out;
  // Bad magic.
  std::vector<uint8_t> bad = wire;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeMessage(bad.data(), bad.size(), &out));
  // Truncations at every prefix length must fail, never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(wire.data(), len, &out)) << "len=" << len;
  }
  EXPECT_FALSE(DecodeMessage(nullptr, 0, &out));

  // An enum byte above the enum's largest value: a lock mode of 2. The
  // mode is the byte before the object id (4) and op_started (8).
  std::vector<uint8_t> bad_mode = wire;
  bad_mode[bad_mode.size() - 13] = 2;
  EXPECT_FALSE(DecodeMessage(bad_mode.data(), bad_mode.size(), &out));
  bad_mode[bad_mode.size() - 13] = 0;
  ASSERT_TRUE(DecodeMessage(bad_mode.data(), bad_mode.size(), &out));
  EXPECT_EQ(net::As<LockRequest>(out.payload).mode, LockMode::kShared);

  // The retired election bodies (discriminators 18-20, with their old
  // body sizes: none, a bool, a node id) decode as malformed. A frame
  // with no payload ends in its discriminator byte.
  std::vector<uint8_t> bare = EncodeMessage(Request(msg::kLock, nullptr));
  ASSERT_FALSE(bare.empty());
  const std::pair<uint8_t, size_t> retired[] = {{18, 0}, {19, 1}, {20, 4}};
  for (const auto& [body, size] : retired) {
    std::vector<uint8_t> frame = bare;
    frame.back() = body;
    frame.resize(frame.size() + size, 1);
    EXPECT_FALSE(DecodeMessage(frame.data(), frame.size(), &out))
        << "discriminator " << int{body};
  }
}

TEST(WireCodecTest, MakeWireCodecIsWiredUp) {
  rt::WireCodec codec = MakeWireCodec();
  ASSERT_TRUE(codec.encode && codec.decode);
  net::Message msg = Request(msg::kFetch, std::make_shared<FetchRequest>());
  std::vector<uint8_t> wire;
  ASSERT_TRUE(codec.encode(msg, &wire));
  ASSERT_FALSE(wire.empty());
  net::Message out;
  EXPECT_TRUE(codec.decode(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.type, msg.type);
}

TEST(WireCodecTest, EncodeIntoPreservesCallerPrefix) {
  // The socket transport reserves its 4-byte frame header in the buffer
  // before encoding; the encoder must append after it, and a failed
  // encode must restore the buffer to exactly the prefix.
  net::Message msg = Request(msg::kFetch, std::make_shared<FetchRequest>());
  std::vector<uint8_t> with_prefix = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(EncodeMessageInto(msg, &with_prefix));
  ASSERT_GT(with_prefix.size(), 4u);
  EXPECT_EQ(with_prefix[0], 0xde);
  EXPECT_EQ(with_prefix[3], 0xef);

  // Appended bytes equal a from-scratch encode.
  std::vector<uint8_t> plain = EncodeMessage(msg);
  ASSERT_EQ(with_prefix.size() - 4, plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), with_prefix.begin() + 4));

  // Unencodable payload type: prefix survives untouched.
  struct AlienPayload : net::Payload {};
  net::Message bogus;
  bogus.src = 0;
  bogus.dst = 1;
  bogus.kind = net::Message::Kind::kRequest;
  bogus.type = net::TypeName("not-a-wire-type");
  bogus.payload = std::make_shared<AlienPayload>();
  std::vector<uint8_t> prefix_only = {0x01, 0x02};
  EXPECT_FALSE(EncodeMessageInto(bogus, &prefix_only));
  EXPECT_EQ(prefix_only, (std::vector<uint8_t>{0x01, 0x02}));
}

}  // namespace
}  // namespace dcp::protocol
