// Unit tests for the durable storage engine: the simulated disk's
// sync/tear semantics, WAL framing and torn-tail recovery scans, group
// commit batching, checkpoint round-trips, and what DurableStore's
// recovery hands back: the checkpoint body, then the records after it.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "store/codec.h"
#include "store/durable_store.h"
#include "store/sim_disk.h"
#include "store/wal.h"

namespace dcp::store {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The canonical check value for CRC-32/zlib.
  std::vector<uint8_t> data = Bytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainsAcrossPieces) {
  std::vector<uint8_t> whole = Bytes("hello, world");
  std::vector<uint8_t> head = Bytes("hello,");
  std::vector<uint8_t> tail = Bytes(" world");
  EXPECT_EQ(Crc32(whole), Crc32(tail, Crc32(head)));
}

// --- codec ----------------------------------------------------------------

TEST(CodecTest, ByteReaderFlagsOverrun) {
  ByteWriter w;
  w.U32(7);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.ok());
  (void)r.U64();  // Past the end.
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, BytesLengthPrefixIsBoundChecked) {
  // A length prefix claiming more payload than exists must not read past
  // the buffer — exactly the shape a torn record presents to recovery.
  ByteWriter w;
  w.U32(1000);  // Claims 1000 bytes...
  w.U8(1);      // ...but only one follows.
  ByteReader r(w.buffer());
  (void)r.Bytes();
  EXPECT_FALSE(r.ok());
}

// --- SimDisk --------------------------------------------------------------

DiskCrashModel DropModel() {
  DiskCrashModel m;
  m.tear_probability = 0;  // Crashes always drop the whole tail.
  m.seed = 1;
  return m;
}

DiskCrashModel TearModel(uint64_t seed) {
  DiskCrashModel m;
  m.tear_probability = 1;  // Crashes always keep a random prefix.
  m.seed = seed;
  return m;
}

TEST(SimDiskTest, AppendIsVolatileUntilSync) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskOptions{}, DropModel());
  SimDisk::FileId f = disk.OpenFile("wal");

  disk.Append(f, Bytes("abc"));
  EXPECT_EQ(disk.End(f), 3u);
  EXPECT_EQ(disk.DurableEnd(f), 0u);

  bool synced = false;
  disk.Sync(f, [&] { synced = true; });
  EXPECT_FALSE(synced);  // Durability costs simulated time.
  sim.Run();
  EXPECT_TRUE(synced);
  EXPECT_EQ(disk.DurableEnd(f), 3u);
  EXPECT_EQ(disk.DurableImage(f), Bytes("abc"));
}

TEST(SimDiskTest, BytesAppendedDuringSyncStayInTail) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskOptions{}, DropModel());
  SimDisk::FileId f = disk.OpenFile("wal");

  disk.Append(f, Bytes("first"));
  bool synced = false;
  disk.Sync(f, [&] { synced = true; });
  // Lands while the barrier is in flight: fsync promises nothing for it.
  disk.Append(f, Bytes("second"));
  sim.Run();
  EXPECT_TRUE(synced);
  EXPECT_EQ(disk.DurableImage(f), Bytes("first"));
  EXPECT_EQ(disk.End(f), 11u);
}

TEST(SimDiskTest, CrashDropsUnsyncedTailWhole) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskOptions{}, DropModel());
  SimDisk::FileId f = disk.OpenFile("wal");

  disk.Append(f, Bytes("durable"));
  bool synced = false;
  disk.Sync(f, [&] { synced = true; });
  sim.Run();
  ASSERT_TRUE(synced);

  disk.Append(f, Bytes("doomed"));
  bool late_sync = false;
  disk.Sync(f, [&] { late_sync = true; });
  disk.Crash();
  sim.Run();
  EXPECT_FALSE(late_sync);  // In-flight barriers never complete.
  EXPECT_EQ(disk.DurableImage(f), Bytes("durable"));
  EXPECT_EQ(disk.End(f), disk.DurableEnd(f));  // Tail gone.
}

TEST(SimDiskTest, CrashTearKeepsBytePrefixOfTail) {
  // With tear_probability = 1 the surviving image must be a strict byte
  // prefix of what was appended — never a hole, never reordered bytes.
  std::vector<uint8_t> appended;
  for (int i = 0; i < 64; ++i) appended.push_back(static_cast<uint8_t>(i));

  bool saw_partial_tear = false;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Simulator sim;
    SimDisk disk(&sim, DiskOptions{}, TearModel(seed));
    SimDisk::FileId f = disk.OpenFile("wal");
    disk.Append(f, appended);
    disk.Crash();

    const std::vector<uint8_t>& image = disk.DurableImage(f);
    ASSERT_LE(image.size(), appended.size());
    EXPECT_TRUE(std::equal(image.begin(), image.end(), appended.begin()))
        << "torn image is not a prefix (seed " << seed << ")";
    if (!image.empty() && image.size() < appended.size()) {
      saw_partial_tear = true;
    }
  }
  EXPECT_TRUE(saw_partial_tear) << "no seed produced a mid-tail tear";
}

TEST(SimDiskTest, CrashModelIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    SimDisk disk(&sim, DiskOptions{}, TearModel(seed));
    SimDisk::FileId f = disk.OpenFile("wal");
    std::vector<uint8_t> data(128, 0xAB);
    disk.Append(f, data);
    disk.Crash();
    return disk.DurableImage(f).size();
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(SimDiskTest, ReplaceStartsFreshLsnSpaceAndSurvivesViaOldOnCrash) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskOptions{}, DropModel());
  SimDisk::FileId f = disk.OpenFile("ckpt");

  bool replaced = false;
  disk.Replace(f, Bytes("v1"), [&] { replaced = true; });
  sim.Run();
  ASSERT_TRUE(replaced);
  EXPECT_EQ(disk.BaseLsn(f), 0u);
  EXPECT_EQ(disk.DurableImage(f), Bytes("v1"));

  // A crash mid-replace keeps the *old* contents (write-temp + rename).
  bool second = false;
  disk.Replace(f, Bytes("v2-much-longer"), [&] { second = true; });
  disk.Crash();
  sim.Run();
  EXPECT_FALSE(second);
  EXPECT_EQ(disk.DurableImage(f), Bytes("v1"));
}

TEST(SimDiskTest, TruncatePrefixKeepsLaterLsnsStable) {
  sim::Simulator sim;
  SimDisk disk(&sim, DiskOptions{}, DropModel());
  SimDisk::FileId f = disk.OpenFile("wal");

  disk.Append(f, Bytes("0123456789"));
  disk.Sync(f, [] {});
  sim.Run();
  disk.TruncatePrefix(f, 4);
  EXPECT_EQ(disk.BaseLsn(f), 4u);
  EXPECT_EQ(disk.DurableEnd(f), 10u);
  EXPECT_EQ(disk.DurableImage(f), Bytes("456789"));
}

// --- Wal ------------------------------------------------------------------

struct WalFixture {
  sim::Simulator sim;
  SimDisk disk;
  SimDisk::FileId file;
  Wal wal;

  explicit WalFixture(DiskCrashModel crash = DropModel(),
                      WalOptions options = {})
      : disk(&sim, DiskOptions{}, crash),
        file(disk.OpenFile("wal")),
        wal(&sim, &disk, file, options) {}

  struct Seen {
    uint64_t lsn;
    uint8_t type;
    std::vector<uint8_t> payload;
  };
  std::vector<Seen> ScanAll(WalScanStats* stats = nullptr) {
    std::vector<Seen> out;
    WalScanStats s = wal.Scan([&](uint64_t lsn, uint8_t type, ByteReader& r) {
      std::vector<uint8_t> payload;
      while (r.remaining() > 0) payload.push_back(r.U8());
      out.push_back({lsn, type, std::move(payload)});
    });
    if (stats) *stats = s;
    return out;
  }
};

TEST(WalTest, AppendCommitScanRoundTrip) {
  WalFixture fx;
  fx.wal.Append(1, Bytes("alpha"));
  fx.wal.Append(2, Bytes("beta"));
  bool committed = false;
  fx.wal.Commit([&] { committed = true; });
  fx.sim.Run();
  ASSERT_TRUE(committed);

  WalScanStats stats;
  auto seen = fx.ScanAll(&stats);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].type, 1u);
  EXPECT_EQ(seen[0].payload, Bytes("alpha"));
  EXPECT_EQ(seen[1].type, 2u);
  EXPECT_EQ(seen[1].payload, Bytes("beta"));
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ(stats.valid_end_lsn, fx.wal.durable_end_lsn());
}

TEST(WalTest, ScanStopsAtGarbageFrame) {
  WalFixture fx;
  fx.wal.Append(1, Bytes("good"));
  fx.wal.Commit([] {});
  fx.sim.Run();
  // Garbage straight onto the disk behind the WAL's back — a frame whose
  // magic byte is wrong. The scan must stop there, not wander.
  std::vector<uint8_t> garbage = Bytes("garbage-not-a-frame");
  garbage.insert(garbage.begin(), 0x00);  // Anything but Wal::kMagic.
  fx.disk.Append(fx.file, garbage);
  fx.disk.Sync(fx.file, [] {});
  fx.sim.Run();

  WalScanStats stats;
  auto seen = fx.ScanAll(&stats);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload, Bytes("good"));
  EXPECT_GT(stats.torn_bytes, 0u);
}

TEST(WalTest, ScanRejectsCorruptPayload) {
  // A record whose bytes were silently flipped after the CRC was computed
  // must fail verification. Write a valid frame, then corrupt one durable
  // payload byte by rebuilding the file contents through Replace.
  WalFixture fx;
  fx.wal.Append(1, Bytes("payload"));
  fx.wal.Commit([] {});
  fx.sim.Run();

  std::vector<uint8_t> image = fx.disk.DurableImage(fx.file);
  ASSERT_GT(image.size(), Wal::kHeaderSize);
  image.back() ^= 0xFF;  // Flip the last payload byte.
  fx.disk.Replace(fx.file, image, [] {});
  fx.sim.Run();

  WalScanStats stats;
  auto seen = fx.ScanAll(&stats);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(stats.torn_bytes, image.size());
}

TEST(WalTest, TornTailIsTrimmedAndLogStaysAppendable) {
  // Tear mid-record, recover, then keep logging: the trimmed log must
  // accept and retain new records.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    WalFixture fx(TearModel(seed));
    fx.wal.Append(1, Bytes("committed-record"));
    bool committed = false;
    fx.wal.Commit([&] { committed = true; });
    fx.sim.Run();
    ASSERT_TRUE(committed);

    fx.wal.Append(2, std::vector<uint8_t>(64, 0x22));  // Unsynced.
    fx.wal.OnCrash();
    fx.disk.Crash();

    WalScanStats stats;
    auto seen = fx.ScanAll(&stats);
    ASSERT_GE(seen.size(), 1u) << "seed " << seed;
    EXPECT_EQ(seen[0].payload, Bytes("committed-record"));
    fx.wal.TrimTorn(stats);

    fx.wal.Append(3, Bytes("post-recovery"));
    fx.wal.Commit([] {});
    fx.sim.Run();
    auto after = fx.ScanAll();
    ASSERT_EQ(after.size(), seen.size() + 1) << "seed " << seed;
    EXPECT_EQ(after.back().type, 3u);
    EXPECT_EQ(after.back().payload, Bytes("post-recovery"));
  }
}

TEST(WalTest, GroupCommitBatchesConcurrentWaiters) {
  WalFixture fx;
  obs::Counter* syncs = fx.sim.metrics().counter("disk.syncs");

  // First commit takes the barrier; the rest arrive while it is in
  // flight and must share the *next* one — two syncs for six commits.
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    fx.wal.Append(1, Bytes("r" + std::to_string(i)));
    fx.wal.Commit([&] { ++fired; });
  }
  fx.sim.Run();
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(syncs->value(), 2u);
  EXPECT_EQ(fx.wal.durable_end_lsn(), fx.wal.end_lsn());
}

TEST(WalTest, CommitWaitersDieWithTheNode) {
  WalFixture fx;
  fx.wal.Append(1, Bytes("unsynced"));
  bool fired = false;
  fx.wal.Commit([&] { fired = true; });
  fx.wal.OnCrash();
  fx.disk.Crash();
  fx.sim.Run();
  EXPECT_FALSE(fired);  // The ack that never was.
}

TEST(WalTest, LazyFlushMakesCommitlessRecordsDurable) {
  WalOptions options;
  options.flush_interval = 10.0;
  WalFixture fx(DropModel(), options);
  fx.wal.Append(1, Bytes("bookkeeping"));
  EXPECT_EQ(fx.wal.durable_end_lsn(), fx.wal.base_lsn());
  fx.sim.RunUntil(50);
  EXPECT_EQ(fx.wal.durable_end_lsn(), fx.wal.end_lsn());
}

TEST(WalTest, NextSyncRecordWaitsForAnotherRecordsSync) {
  // A record appended with Flush::kNextSync (a forgotten 2PC outcome)
  // issues no sync of its own, not even through a lazy flush an earlier,
  // already durable record armed: it stays in the tail and becomes
  // durable with the next committed record.
  WalOptions options;
  options.flush_interval = 10.0;
  WalFixture fx(DropModel(), options);
  obs::Counter* syncs = fx.sim.metrics().counter("disk.syncs");
  fx.wal.Append(1, Bytes("duty"));  // Arms the lazy flush...
  bool committed = false;
  fx.wal.Commit([&] { committed = true; });
  fx.sim.RunUntil(5);  // ...and is synced before it fires.
  ASSERT_TRUE(committed);
  ASSERT_EQ(syncs->value(), 1u);

  fx.wal.Append(2, Bytes("forget"), Flush::kNextSync);
  fx.sim.RunUntil(50);
  EXPECT_EQ(syncs->value(), 1u);
  EXPECT_LT(fx.wal.durable_end_lsn(), fx.wal.end_lsn());

  fx.wal.Append(3, Bytes("resolve"));
  committed = false;
  fx.wal.Commit([&] { committed = true; });
  fx.sim.RunUntil(100);
  ASSERT_TRUE(committed);
  EXPECT_EQ(syncs->value(), 2u);
  EXPECT_EQ(fx.wal.durable_end_lsn(), fx.wal.end_lsn());
  auto seen = fx.ScanAll();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1].payload, Bytes("forget"));
  EXPECT_EQ(seen[2].payload, Bytes("resolve"));
}

// --- DurableStore ---------------------------------------------------------
//
// The store holds bytes only: these tests append raw records and check
// what recovery hands back. What the redo records mean is checked at the
// node (tests/redo_test.cc).

DurabilityOptions StoreOptions(DiskCrashModel crash = DropModel()) {
  DurabilityOptions o;
  o.enabled = true;
  o.crash = crash;
  return o;
}

/// What one recovery handed out: the checkpoint body, if any, then the
/// records after it.
struct Recovered {
  Status status;
  std::optional<std::vector<uint8_t>> checkpoint;
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> records;
};

std::vector<uint8_t> Rest(ByteReader& r) {
  std::vector<uint8_t> out;
  while (r.remaining() > 0) out.push_back(r.U8());
  return out;
}

Recovered RecoverAll(DurableStore& store) {
  Recovered out;
  out.status = store.Recover(
      [&out](ByteReader& body) {
        out.checkpoint = Rest(body);
        return true;
      },
      [&out](uint8_t type, ByteReader& r) {
        out.records.emplace_back(type, Rest(r));
      });
  return out;
}

TEST(DurableStoreTest, EmptyDiskRecoversNothing) {
  sim::Simulator sim;
  DurableStore store(&sim, StoreOptions());
  Recovered rec = RecoverAll(store);
  EXPECT_TRUE(rec.status.ok());
  EXPECT_FALSE(rec.checkpoint.has_value());
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(store.last_recovery().replayed_records, 0u);
  EXPECT_FALSE(store.last_recovery().from_checkpoint);
}

TEST(DurableStoreTest, UnsyncedRecordsDieButSyncedPrefixSurvives) {
  sim::Simulator sim;
  DurableStore store(&sim, StoreOptions());

  store.Append(1, Bytes("durable"));
  store.Commit([] {});
  sim.Run();
  store.Append(1, Bytes("volatile"));
  store.Crash();  // The second record never reached a barrier.

  Recovered rec = RecoverAll(store);
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.records[0].first, 1u);
  EXPECT_EQ(rec.records[0].second, Bytes("durable"));
}

/// Logs versions 1..20 of a 32-byte value with a checkpoint threshold low
/// enough to checkpoint mid-run. Each checkpoint body is the latest
/// version number as a u64.
void LogTwentyVersions(sim::Simulator& sim, DurableStore& store) {
  uint64_t live = 0;
  store.set_checkpoint_source([&live](ByteWriter& w) { w.U64(live); });
  for (uint64_t v = 1; v <= 20; ++v) {
    store.Append(1, std::vector<uint8_t>(32, static_cast<uint8_t>(v)));
    live = v;
    store.Commit([] {});
    sim.Run();
  }
  store.set_checkpoint_source(nullptr);
}

DurabilityOptions CheckpointingOptions() {
  DurabilityOptions options = StoreOptions();
  options.checkpoint_threshold_bytes = 256;  // Trigger quickly.
  return options;
}

TEST(DurableStoreTest, CheckpointTriggersTruncationAndRecovery) {
  sim::Simulator sim;
  DurableStore store(&sim, CheckpointingOptions());
  LogTwentyVersions(sim, store);
  EXPECT_GT(sim.metrics().counter("store.checkpoints")->value(), 0u);
  EXPECT_GT(store.wal().base_lsn(), 0u);  // Prefix truncated.

  store.Crash();
  Recovered rec = RecoverAll(store);
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_TRUE(store.last_recovery().from_checkpoint);
  // The body covers a prefix of the versions; the records after it
  // carry exactly the rest, in order.
  ASSERT_TRUE(rec.checkpoint.has_value());
  ByteReader body(*rec.checkpoint);
  const uint64_t covered = body.U64();
  ASSERT_TRUE(body.ok() && body.remaining() == 0);
  EXPECT_GT(covered, 0u);
  ASSERT_EQ(covered + rec.records.size(), 20u);
  for (size_t i = 0; i < rec.records.size(); ++i) {
    EXPECT_EQ(rec.records[i].second,
              std::vector<uint8_t>(32, static_cast<uint8_t>(covered + 1 + i)));
  }
}

TEST(DurableStoreTest, CorruptCheckpointIsRefused) {
  // The log prefix a checkpoint covers is truncated once it is published,
  // so a checkpoint that does not decode cannot fall back to the log.
  sim::Simulator sim;
  DurableStore store(&sim, CheckpointingOptions());
  LogTwentyVersions(sim, store);
  store.Crash();

  constexpr SimDisk::FileId kCheckpointFile = 1;
  std::vector<uint8_t> file = store.disk().DurableImage(kCheckpointFile);
  ASSERT_FALSE(file.empty());
  file[file.size() / 2] ^= 0x01;
  store.disk().Replace(kCheckpointFile, std::move(file), [] {});
  sim.Run();

  Recovered rec = RecoverAll(store);
  EXPECT_FALSE(rec.status.ok());
  EXPECT_FALSE(rec.checkpoint.has_value());
  EXPECT_TRUE(rec.records.empty());
}

TEST(DurableStoreTest, CheckpointBodyTheCallerRefusesIsRefused) {
  sim::Simulator sim;
  DurableStore store(&sim, CheckpointingOptions());
  LogTwentyVersions(sim, store);
  store.Crash();

  bool handed_records = false;
  Status s = store.Recover([](ByteReader&) { return false; },
                           [&](uint8_t, ByteReader&) { handed_records = true; });
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(handed_records);
}

TEST(DurableStoreTest, CrashDuringRecoveryWindowIsRepeatable) {
  // Recover, log more, crash again, recover again — LSNs and replay must
  // stay coherent across generations.
  sim::Simulator sim;
  DurableStore store(&sim, StoreOptions());

  store.Append(1, Bytes("gen1"));
  store.Commit([] {});
  sim.Run();
  store.Crash();
  Recovered r1 = RecoverAll(store);
  ASSERT_EQ(r1.records.size(), 1u);

  store.Append(1, Bytes("gen2"));
  store.Commit([] {});
  sim.Run();
  store.Crash();
  Recovered r2 = RecoverAll(store);
  ASSERT_EQ(r2.records.size(), 2u);
  EXPECT_EQ(r2.records[0].second, Bytes("gen1"));
  EXPECT_EQ(r2.records[1].second, Bytes("gen2"));
  EXPECT_EQ(store.last_recovery().replayed_records, 2u);
}

}  // namespace
}  // namespace dcp::store
