// Unit tests for the stable-storage substrate: write costs in both modes,
// incremental chains and restore costs, garbage collection that never
// breaks a chain, and derived (o, l) parameters feeding the perf model.
#include <gtest/gtest.h>

#include "perf/model.h"
#include "store/store.h"
#include "util/error.h"

namespace {

using namespace acfc;
using store::CheckpointMode;
using store::StableStore;
using store::StorageModel;

StorageModel fast_model() {
  StorageModel m;
  m.write_bandwidth = 100e6;
  m.read_bandwidth = 200e6;
  m.write_latency = 0.01;
  m.read_latency = 0.01;
  m.dirty_fraction = 0.25;
  m.delta_metadata_bytes = 1000;
  m.full_every = 4;
  return m;
}

TEST(Store, FullModeWritesFullState) {
  StableStore s(fast_model(), CheckpointMode::kFull, 2);
  const auto cost = s.write_checkpoint(0, 100'000'000, 1.0);
  EXPECT_TRUE(cost.full_image);
  EXPECT_EQ(cost.bytes, 100'000'000);
  EXPECT_NEAR(cost.seconds, 0.01 + 1.0, 1e-12);
  EXPECT_EQ(s.record_count(0), 1);
  EXPECT_EQ(s.record_count(1), 0);
}

TEST(Store, IncrementalWritesDeltasAfterBase) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1);
  const auto first = s.write_checkpoint(0, 100'000'000, 1.0);
  EXPECT_TRUE(first.full_image);
  const auto second = s.write_checkpoint(0, 100'000'000, 2.0);
  EXPECT_FALSE(second.full_image);
  EXPECT_EQ(second.bytes, 25'000'000 + 1000);
  EXPECT_LT(second.seconds, first.seconds);
}

TEST(Store, FullImageEveryK) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1);
  std::vector<bool> fulls;
  for (int i = 0; i < 9; ++i)
    fulls.push_back(s.write_checkpoint(0, 1'000'000, i).full_image);
  // full_every = 4: full, d, d, d, full, d, d, d, full.
  EXPECT_EQ(fulls, std::vector<bool>(
                       {true, false, false, false, true, false, false,
                        false, true}));
}

TEST(Store, ChainLengthTracksDeltas) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1);
  EXPECT_EQ(s.chain_length(0), 0);
  s.write_checkpoint(0, 1'000'000, 0.0);
  EXPECT_EQ(s.chain_length(0), 1);
  s.write_checkpoint(0, 1'000'000, 1.0);
  s.write_checkpoint(0, 1'000'000, 2.0);
  EXPECT_EQ(s.chain_length(0), 3);  // base + 2 deltas
  s.write_checkpoint(0, 1'000'000, 3.0);
  s.write_checkpoint(0, 1'000'000, 4.0);  // new full image
  EXPECT_EQ(s.chain_length(0), 1);
}

TEST(Store, RestoreCostGrowsWithChain) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1);
  s.write_checkpoint(0, 10'000'000, 0.0);
  const double base_only = s.restore_seconds(0);
  s.write_checkpoint(0, 10'000'000, 1.0);
  s.write_checkpoint(0, 10'000'000, 2.0);
  EXPECT_GT(s.restore_seconds(0), base_only);
}

TEST(Store, FullModeRestoreReadsOneImage) {
  StableStore s(fast_model(), CheckpointMode::kFull, 1);
  s.write_checkpoint(0, 20'000'000, 0.0);
  s.write_checkpoint(0, 20'000'000, 1.0);
  EXPECT_EQ(s.chain_length(0), 1);
  EXPECT_NEAR(s.restore_seconds(0), 0.01 + 0.1, 1e-12);
}

TEST(Store, GarbageCollectionReclaimsOldImages) {
  StableStore s(fast_model(), CheckpointMode::kFull, 2);
  for (int i = 0; i < 6; ++i) {
    s.write_checkpoint(0, 1'000'000, i);
    s.write_checkpoint(1, 1'000'000, i);
  }
  const long before = s.bytes_stored();
  const long reclaimed = s.collect_garbage(2);
  EXPECT_GT(reclaimed, 0);
  EXPECT_EQ(s.bytes_stored(), before - reclaimed);
  EXPECT_EQ(s.record_count(0), 2);
  EXPECT_EQ(s.record_count(1), 2);
}

TEST(Store, GarbageCollectionPreservesChains) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1);
  // full, d, d, d, full, d, d — keep the last 2 restore points.
  for (int i = 0; i < 7; ++i) s.write_checkpoint(0, 1'000'000, i);
  s.collect_garbage(2);
  // The 2 newest records are deltas depending on the full image at index
  // 4; everything from that full image on must survive (3 records).
  const auto records = s.records_of(0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].full_image);
  EXPECT_FALSE(records[1].full_image);
  EXPECT_FALSE(records[2].full_image);
  // Restore still works.
  EXPECT_GT(s.restore_seconds(0), 0.0);
}

TEST(Store, GarbageCollectionNoOpWhenFewRecords) {
  StableStore s(fast_model(), CheckpointMode::kFull, 1);
  s.write_checkpoint(0, 1'000'000, 0.0);
  EXPECT_EQ(s.collect_garbage(3), 0);
  EXPECT_EQ(s.record_count(0), 1);
}

TEST(Store, InvalidArgumentsThrow) {
  EXPECT_THROW(StableStore(fast_model(), CheckpointMode::kFull, 0),
               util::InternalError);
  StableStore s(fast_model(), CheckpointMode::kFull, 1);
  EXPECT_THROW(s.collect_garbage(0), util::InternalError);
  EXPECT_THROW(s.write_checkpoint(0, -5, 0.0), util::InternalError);
}

// ---------------------------------------------------------------------------
// Storage integrity: checksums, manifests, fault injection, verification
// ---------------------------------------------------------------------------

using store::StorageFaultPlan;

TEST(StoreIntegrity, CleanRecordsVerify) {
  StableStore s(fast_model(), CheckpointMode::kIncremental, 2);
  for (int i = 0; i < 5; ++i) s.write_checkpoint(0, 1'000'000, i);
  for (long ordinal = 1; ordinal <= 5; ++ordinal) {
    EXPECT_TRUE(s.verify_record(0, ordinal)) << ordinal;
    EXPECT_TRUE(s.chain_verifies(0, ordinal)) << ordinal;
  }
  EXPECT_EQ(s.latest_valid_index(0), 5);
  EXPECT_FALSE(s.verify_record(0, 6));   // never written
  EXPECT_FALSE(s.verify_record(1, 1));   // other process untouched
  EXPECT_EQ(s.latest_valid_index(1), 0);
  const auto scan = s.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 5);
  EXPECT_EQ(scan.corrupt_skipped, 0);
  EXPECT_NEAR(scan.seconds, s.restore_seconds(0), 1e-12);
}

TEST(StoreIntegrity, TornWriteNeverVerifies) {
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::torn_write(0, 2)};
  StableStore s(fast_model(), CheckpointMode::kFull, 1, plan);
  for (int i = 0; i < 3; ++i) s.write_checkpoint(0, 1'000'000, i);
  EXPECT_TRUE(s.verify_record(0, 1));
  EXPECT_FALSE(s.verify_record(0, 2));
  EXPECT_TRUE(s.verify_record(0, 3));
  EXPECT_EQ(s.latest_valid_index(0), 3);  // full mode: records independent
}

TEST(StoreIntegrity, BitFlipOnBaseRotsTheWholeChain) {
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::bit_flip(0, 1)};  // the first full image
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1, plan);
  // full_every = 4: ordinals 1 full, 2-4 deltas, 5 full, ...
  for (int i = 0; i < 6; ++i) s.write_checkpoint(0, 1'000'000, i);
  for (long ordinal = 1; ordinal <= 4; ++ordinal)
    EXPECT_FALSE(s.chain_verifies(0, ordinal)) << ordinal;
  EXPECT_TRUE(s.chain_verifies(0, 5));  // fresh full image: clean chain
  EXPECT_TRUE(s.chain_verifies(0, 6));
  EXPECT_EQ(s.latest_valid_index(0), 6);
  const auto scan = s.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 6);
  EXPECT_EQ(scan.corrupt_skipped, 0);  // nothing newer than the valid chain
}

TEST(StoreIntegrity, ScanSkipsCorruptNewestAndReports) {
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::bit_flip(0, 4),
                 StorageFaultPlan::torn_write(0, 3)};
  StableStore s(fast_model(), CheckpointMode::kFull, 1, plan);
  for (int i = 0; i < 4; ++i) s.write_checkpoint(0, 1'000'000, i);
  EXPECT_EQ(s.latest_valid_index(0), 2);
  const auto scan = s.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 2);
  EXPECT_EQ(scan.corrupt_skipped, 2);
  EXPECT_EQ(scan.chain_length, 1);
  EXPECT_GT(scan.seconds, 0.0);
}

TEST(StoreIntegrity, LostManifestEntryHidesTheRecord) {
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::lost_manifest_entry(0, 2)};
  StableStore s(fast_model(), CheckpointMode::kFull, 1, plan);
  for (int i = 0; i < 3; ++i) s.write_checkpoint(0, 1'000'000, i);
  EXPECT_FALSE(s.verify_record(0, 2));
  const store::Manifest manifest = s.manifest_of(0);
  for (const auto& entry : manifest.entries) EXPECT_NE(entry.ordinal, 2);
  EXPECT_EQ(manifest.entries.size(), 2u);
}

TEST(StoreIntegrity, StaleManifestHealsOnNextPublish) {
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::stale_manifest(0, 2)};
  StableStore s(fast_model(), CheckpointMode::kFull, 1, plan);
  s.write_checkpoint(0, 1'000'000, 0.0);
  const long version_before = s.manifest_of(0).version;
  s.write_checkpoint(0, 1'000'000, 1.0);
  // Publish failed: the live manifest still only covers ordinal 1.
  EXPECT_FALSE(s.verify_record(0, 2));
  EXPECT_EQ(s.latest_valid_index(0), 1);
  EXPECT_EQ(s.manifest_of(0).version, version_before);
  // The next write's publish covers it: the fault heals.
  s.write_checkpoint(0, 1'000'000, 2.0);
  EXPECT_TRUE(s.verify_record(0, 2));
  EXPECT_EQ(s.latest_valid_index(0), 3);
  EXPECT_GT(s.manifest_of(0).version, version_before);
}

TEST(StoreIntegrity, GcNeverUnchainsTheDegradedFallbackTarget) {
  // Records 1..4, the two newest rotten: a degraded restore falls back to
  // ordinal 2. collect_garbage(1) must keep it restorable — corrupt
  // records do not count against the keep quota.
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::bit_flip(0, 3),
                 StorageFaultPlan::bit_flip(0, 4)};
  StableStore s(fast_model(), CheckpointMode::kFull, 1, plan);
  for (int i = 0; i < 4; ++i) s.write_checkpoint(0, 1'000'000, i);
  ASSERT_EQ(s.latest_valid_index(0), 2);
  s.collect_garbage(1);
  EXPECT_EQ(s.latest_valid_index(0), 2);
  const auto scan = s.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 2);
  EXPECT_GT(scan.seconds, 0.0);  // restore still possible — chain intact
}

TEST(StoreIntegrity, GcKeepsIncrementalChainOfTheFallbackTarget) {
  // Incremental: ordinals 1 full, 2-4 deltas, 5 full, 6-7 deltas; rot the
  // second full image and everything after — the fallback target is the
  // delta at ordinal 4, whose chain reaches back to ordinal 1. GC with
  // keep_last=1 must keep ordinals 1-4.
  StorageFaultPlan plan;
  plan.faults = {StorageFaultPlan::bit_flip(0, 5),
                 StorageFaultPlan::torn_write(0, 6),
                 StorageFaultPlan::bit_flip(0, 7)};
  StableStore s(fast_model(), CheckpointMode::kIncremental, 1, plan);
  for (int i = 0; i < 7; ++i) s.write_checkpoint(0, 1'000'000, i);
  ASSERT_EQ(s.latest_valid_index(0), 4);
  s.collect_garbage(1);
  EXPECT_EQ(s.latest_valid_index(0), 4);
  const auto records = s.records_of(0);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().ordinal, 1);  // the chain base survived
  EXPECT_TRUE(records.front().full_image);
  EXPECT_EQ(s.scan_restore(0).ordinal, 4);
}

TEST(StoreIntegrity, RestoreOfCollectedRecordThrows) {
  StableStore s(fast_model(), CheckpointMode::kFull, 1);
  for (int i = 0; i < 5; ++i) s.write_checkpoint(0, 1'000'000, i);
  s.collect_garbage(1);
  EXPECT_THROW(s.restore_seconds(0, 1), util::InternalError);
  EXPECT_THROW(s.restore_seconds(0, 99), util::InternalError);
  EXPECT_FALSE(s.verify_record(0, 1));  // collected: no longer verifiable
}

TEST(StoreIntegrity, InvalidFaultPlansRejected) {
  StorageFaultPlan bad_proc;
  bad_proc.faults = {StorageFaultPlan::bit_flip(3, 1)};
  EXPECT_THROW(StableStore(fast_model(), CheckpointMode::kFull, 2, bad_proc),
               util::InternalError);
  StorageFaultPlan bad_ordinal;
  bad_ordinal.faults = {StorageFaultPlan::bit_flip(0, 0)};
  EXPECT_THROW(
      StableStore(fast_model(), CheckpointMode::kFull, 2, bad_ordinal),
      util::InternalError);
}

// ---------------------------------------------------------------------------
// Derived parameters → perf model
// ---------------------------------------------------------------------------

TEST(StoreDerive, FullSynchronous) {
  const auto d = store::derive_checkpoint_params(
      fast_model(), CheckpointMode::kFull, 100'000'000);
  EXPECT_NEAR(d.latency, 0.01 + 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.overhead, d.latency);
}

TEST(StoreDerive, IncrementalAveragesCheaper) {
  const auto full = store::derive_checkpoint_params(
      fast_model(), CheckpointMode::kFull, 100'000'000);
  const auto inc = store::derive_checkpoint_params(
      fast_model(), CheckpointMode::kIncremental, 100'000'000);
  EXPECT_LT(inc.latency, full.latency);
}

TEST(StoreDerive, FeedsOverheadModel) {
  // Derived o/l plug straight into the Section-4 model: a bigger state
  // means a bigger o and thus a bigger overhead ratio.
  perf::ModelParams small = perf::params_for(proto::Protocol::kAppDriven, 32);
  perf::ModelParams large = small;
  const auto d_small = store::derive_checkpoint_params(
      fast_model(), CheckpointMode::kFull, 10'000'000);
  const auto d_large = store::derive_checkpoint_params(
      fast_model(), CheckpointMode::kFull, 1'000'000'000);
  small.o = d_small.overhead;
  small.l = d_small.latency;
  large.o = d_large.overhead;
  large.l = d_large.latency;
  EXPECT_LT(perf::overhead_ratio(small), perf::overhead_ratio(large));
}

}  // namespace
