#include "storage/versioned_object.h"

#include <gtest/gtest.h>

#include <vector>

#include "store/codec.h"
#include "util/random.h"

namespace dcp::storage {
namespace {

std::vector<uint8_t> Bytes(const char* s) {
  return std::vector<uint8_t>(s, s + std::string(s).size());
}

TEST(VersionedObject, StartsAtVersionZero) {
  VersionedObject obj(Bytes("abc"));
  EXPECT_EQ(obj.version(), 0u);
  EXPECT_EQ(obj.data(), Bytes("abc"));
}

TEST(VersionedObject, TotalUpdateReplaces) {
  VersionedObject obj(Bytes("abc"));
  obj.Apply(Update::Total(Bytes("xy")));
  EXPECT_EQ(obj.version(), 1u);
  EXPECT_EQ(obj.data(), Bytes("xy"));
}

TEST(VersionedObject, PartialUpdatePatchesRange) {
  VersionedObject obj(Bytes("abcdef"));
  obj.Apply(Update::Partial(2, Bytes("XY")));
  EXPECT_EQ(obj.data(), Bytes("abXYef"));
}

TEST(VersionedObject, PartialUpdateGrowsObject) {
  VersionedObject obj(Bytes("ab"));
  obj.Apply(Update::Partial(4, Bytes("Z")));
  std::vector<uint8_t> expect = {'a', 'b', 0, 0, 'Z'};
  EXPECT_EQ(obj.data(), expect);
}

TEST(VersionedObject, UpdatesSinceReturnsGap) {
  // Large enough that three 1-byte patches stay cheaper than a snapshot.
  VersionedObject obj(std::vector<uint8_t>(64, 0));
  obj.Apply(Update::Partial(0, {1}));
  obj.Apply(Update::Partial(1, {2}));
  obj.Apply(Update::Partial(2, {3}));
  auto gap = obj.UpdatesSince(1);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap->size(), 2u);
  EXPECT_EQ((*gap)[0].offset, 1u);
  EXPECT_EQ((*gap)[1].offset, 2u);
  auto none = obj.UpdatesSince(3);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(VersionedObject, UpdatesSinceFailsWhenLogTruncated) {
  // Two 1-byte patches (14 bytes each) cost more than a snapshot of the
  // 8-byte value (21 bytes), so the bound drops the first.
  VersionedObject obj(Bytes("abcdefgh"));
  obj.Apply(Update::Partial(0, {1}));
  obj.Apply(Update::Partial(0, {2}));
  EXPECT_FALSE(obj.UpdatesSince(0).ok());
  EXPECT_TRUE(obj.UpdatesSince(1).ok());
  EXPECT_EQ(obj.LogSize(), 1u);
}

TEST(VersionedObject, SnapshotInstall) {
  VersionedObject source(Bytes("s"));
  for (int i = 0; i < 5; ++i) source.Apply(Update::Partial(0, {uint8_t(i)}));
  VersionedObject target(Bytes("s"));
  target.InstallSnapshot(source.version(), source.Snapshot());
  EXPECT_EQ(target.version(), 5u);
  EXPECT_EQ(target.data(), source.data());
  // The target's log is gone; it can only relay via snapshots now.
  EXPECT_FALSE(target.UpdatesSince(0).ok());
}

TEST(VersionedObject, ChargeIsTheEncodedSize) {
  for (const Update& u : {Update::Total(Bytes("value")),
                          Update::Partial(7, Bytes("xy")),
                          Update::Partial(0, {})}) {
    store::ByteWriter w;
    store::Put{w}(u);
    EXPECT_EQ(u.Charge(), w.size());
  }
  VersionedObject obj(Bytes("abc"));
  store::ByteWriter w;
  store::Put{w}(obj.Snapshot());
  EXPECT_EQ(obj.SnapshotCharge(), w.size());
}

TEST(VersionedObject, TotalUpdateIsNeverLogged) {
  VersionedObject obj(std::vector<uint8_t>(64, 0));
  obj.Apply(Update::Partial(0, {1}));
  obj.Apply(Update::Total(Bytes("new value")));
  EXPECT_EQ(obj.LogSize(), 0u);
  EXPECT_EQ(obj.LogCharge(), 0u);
  EXPECT_FALSE(obj.UpdatesSince(1).ok());
  obj.Apply(Update::Partial(0, {'N'}));
  auto gap = obj.UpdatesSince(2);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(gap->size(), 1u);
}

TEST(VersionedObject, BoundedLogNeverShipsMoreThanAnUnboundedOne) {
  // Random mixes of total updates, patches and appends that grow the
  // value. After every Apply the log costs less than a snapshot; and for
  // every version a target may hold, what the object ships (the gap if
  // its log reaches back that far, else a snapshot) costs no more than
  // the gap an unbounded log would ship, and brings the target to the
  // same data. Writes start at or before the end: a hole past it would
  // grow the snapshot by more than the write's charge.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<uint8_t> initial(rng.Uniform(64), 0x5a);
    VersionedObject obj(initial);
    // The unbounded log, as the contents at each version and the summed
    // charge of the updates before it.
    std::vector<std::vector<uint8_t>> contents = {initial};
    std::vector<uint64_t> charge_before = {0};
    for (int step = 0; step < 200; ++step) {
      const uint64_t size = obj.data().size();
      const uint64_t kind = rng.Uniform(10);
      std::vector<uint8_t> bytes(1 + rng.Uniform(kind == 0 ? 96 : 24));
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next64());
      Update u = kind == 0   ? Update::Total(std::move(bytes))
                 : kind == 1 ? Update::Partial(size, std::move(bytes))
                             : Update::Partial(rng.Uniform(size + 1),
                                               std::move(bytes));
      charge_before.push_back(charge_before.back() + u.Charge());
      obj.Apply(std::move(u));
      contents.push_back(obj.data());
      ASSERT_LT(obj.LogCharge(), obj.SnapshotCharge())
          << "seed " << seed << " step " << step;

      for (Version from = 0; from <= obj.version(); ++from) {
        const uint64_t unbounded = charge_before.back() - charge_before[from];
        VersionedObject target(contents[from]);
        uint64_t shipped = obj.SnapshotCharge();
        Result<std::vector<Update>> gap = obj.UpdatesSince(from);
        if (gap.ok()) {
          ASSERT_EQ(gap->size(), obj.version() - from);
          shipped = 0;
          for (Update& g : *gap) {
            shipped += g.Charge();
            target.Apply(std::move(g));
          }
          ASSERT_EQ(shipped, unbounded);
        } else {
          target.InstallSnapshot(obj.version(), obj.Snapshot());
        }
        ASSERT_LE(shipped, unbounded)
            << "seed " << seed << " step " << step << " from " << from;
        ASSERT_EQ(target.data(), obj.data())
            << "seed " << seed << " step " << step << " from " << from;
      }
    }
  }
}

TEST(VersionedObject, FingerprintDistinguishesVersionAndData) {
  VersionedObject a(Bytes("same"));
  VersionedObject b(Bytes("same"));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.Apply(Update::Partial(0, {'x'}));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace dcp::storage
