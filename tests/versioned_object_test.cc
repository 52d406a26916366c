#include "storage/versioned_object.h"

#include <gtest/gtest.h>

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
  VersionedObject obj;
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
  VersionedObject obj;
  obj.Apply(Update::Partial(0, {1}));
  obj.Apply(Update::Partial(0, {2}));
  obj.TruncateLog(1);
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

TEST(VersionedObject, FingerprintDistinguishesVersionAndData) {
  VersionedObject a(Bytes("same"));
  VersionedObject b(Bytes("same"));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  a.Apply(Update::Partial(0, {'x'}));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace dcp::storage
