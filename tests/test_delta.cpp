// ACFD delta-record codec and payload-backed StableStore coverage:
// known-answer encodings, strict-decode rejection, chain-suffix
// invalidation under corruption, GC anchor preservation, and the
// snapshot-serializer capture wiring into the engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/snapshot_codec.h"
#include "store/delta.h"
#include "store/store.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace acfc;
using store::CheckpointMode;
using store::decode_record;
using store::encode_delta_record;
using store::encode_full_record;
using store::RecordKind;
using store::StableStore;
using store::StorageFault;
using store::StorageModel;

// ---------------------------------------------------------------------------
// Codec: known answers and round trips
// ---------------------------------------------------------------------------

const std::string kKatBase = "AAAABBBBCCCCDDDDEEEEFFFF";
const std::string kKatNext = "AAAABBBBxxxxDDDDEEEEFFFF";

TEST(DeltaCodec, FullRecordKnownAnswer) {
  const std::string expect(
      "\x41\x43\x46\x44\x01\x00\x00\x00\x00\x18\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x41\x41\x41\x41\x42\x42\x42"
      "\x42\x43\x43\x43\x43\x44\x44\x44\x44\x45\x45\x45\x45\x46\x46\x46"
      "\x46\xd2\x78\x58\x21\x09\xd2\xe3\xf9",
      57);
  EXPECT_EQ(encode_full_record(kKatBase), expect);
  EXPECT_EQ(store::record_kind(expect), RecordKind::kFull);
  EXPECT_EQ(decode_record(expect, {}), kKatBase);
}

TEST(DeltaCodec, DeltaRecordKnownAnswer) {
  // One changed 8-byte block in the middle: copy(0,8), literal
  // "xxxxDDDD", copy(16,8). (The literal run rounds up to the block.)
  const std::string expect(
      "\x41\x43\x46\x44\x01\x00\x00\x00\x01\x18\x00\x00\x00\x00\x00\x00"
      "\x00\xae\xe8\x54\xeb\xb9\x68\x56\x98\x00\x00\x00\x00\x00\x08\x00"
      "\x00\x00\x01\x08\x00\x00\x00\x78\x78\x78\x78\x44\x44\x44\x44\x00"
      "\x10\x00\x00\x00\x08\x00\x00\x00\x20\xc7\x69\xb8\x21\x3e\xda\x36",
      64);
  EXPECT_EQ(encode_delta_record(kKatBase, kKatNext), expect);
  EXPECT_EQ(store::record_kind(expect), RecordKind::kDelta);
  EXPECT_EQ(decode_record(expect, kKatBase), kKatNext);
}

TEST(DeltaCodec, RoundTripsArbitraryPairs) {
  util::Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    std::string base(len, '\0');
    for (char& c : base) c = static_cast<char>(rng.uniform_int(0, 255));
    // Mutate a few spots (and sometimes the length) to make the payload.
    std::string payload = base;
    payload.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len) + 32)));
    for (std::size_t i = base.size(); i < payload.size(); ++i)
      payload[i] = static_cast<char>(rng.uniform_int(0, 255));
    for (int hit = 0; hit < 4 && !payload.empty(); ++hit)
      payload[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(payload.size()) - 1))] ^= 0x40;

    EXPECT_EQ(decode_record(encode_full_record(payload), {}), payload);
    EXPECT_EQ(decode_record(encode_delta_record(base, payload), base),
              payload);
  }
}

TEST(DeltaCodec, IdenticalPayloadDeltaIsTiny) {
  std::string payload(512, 'z');
  const std::string delta = encode_delta_record(payload, payload);
  // Header + one copy op + checksum — far below the payload size.
  EXPECT_LT(delta.size(), 64u);
  EXPECT_EQ(decode_record(delta, payload), payload);
}

TEST(DeltaCodec, DecodeRejectsEveryCorruptByte) {
  const std::string record = encode_delta_record(kKatBase, kKatNext);
  for (std::size_t i = 0; i < record.size(); ++i) {
    std::string bent = record;
    bent[i] ^= 0x01;
    EXPECT_EQ(decode_record(bent, kKatBase), std::nullopt) << "byte " << i;
  }
}

TEST(DeltaCodec, DecodeRejectsStructuralDamage) {
  const std::string full = encode_full_record(kKatBase);
  const std::string delta = encode_delta_record(kKatBase, kKatNext);
  // Truncations at every length.
  for (std::size_t keep = 0; keep < full.size(); ++keep)
    EXPECT_EQ(decode_record(full.substr(0, keep), {}), std::nullopt);
  // Trailing garbage.
  EXPECT_EQ(decode_record(full + "x", {}), std::nullopt);
  // A delta decoded against the wrong base fails the base binding.
  EXPECT_EQ(decode_record(delta, kKatNext), std::nullopt);
  EXPECT_EQ(decode_record(delta, {}), std::nullopt);
  // Arbitrary bytes are rejected, not crashed on.
  EXPECT_EQ(decode_record("not a record at all, certainly", {}),
            std::nullopt);
  EXPECT_EQ(store::record_kind("ACFDxxxx"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Payload-backed StableStore
// ---------------------------------------------------------------------------

StorageModel tight_model(int full_every) {
  StorageModel model;
  model.full_every = full_every;
  return model;
}

constexpr std::size_t kPayloadBytes = 512;

/// Synthetic per-ordinal payloads that mostly share bytes with their
/// predecessor, like real consecutive snapshots: one moving 16-byte
/// dirty region (a clock component) plus one fixed counter byte.
std::string payload_at(long ordinal) {
  std::string p(kPayloadBytes, 'p');
  const auto at = static_cast<std::size_t>((ordinal % 8) * 24);
  for (std::size_t i = 0; i < 16; ++i)
    p[at + i] = static_cast<char>('a' + (ordinal + static_cast<long>(i)) % 26);
  p[kPayloadBytes - 1] = static_cast<char>('0' + ordinal % 10);
  return p;
}

TEST(PayloadStore, IncrementalChainRoundTrips) {
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 10; ++ordinal) {
    const auto cost = store.write_payload(0, payload_at(ordinal),
                                          static_cast<double>(ordinal));
    // Cadence: full on the 1st take and every 4th after, deltas between.
    const bool expect_full = (ordinal - 1) % 4 == 0;
    EXPECT_EQ(cost.full_image, expect_full) << "ordinal " << ordinal;
    if (!expect_full) {
      EXPECT_LT(cost.bytes, static_cast<long>(kPayloadBytes + 33))
          << "delta did not shrink";
    }
  }
  for (long ordinal = 1; ordinal <= 10; ++ordinal)
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal))
        << "ordinal " << ordinal;
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(10));
}

TEST(PayloadStore, DeltaBytesUndercutFullMode) {
  StableStore full_store(tight_model(8), CheckpointMode::kFull, 1);
  StableStore delta_store(tight_model(8), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 16; ++ordinal) {
    full_store.write_payload(0, payload_at(ordinal),
                             static_cast<double>(ordinal));
    delta_store.write_payload(0, payload_at(ordinal),
                              static_cast<double>(ordinal));
  }
  EXPECT_LT(delta_store.bytes_stored(), full_store.bytes_stored() / 2);
}

TEST(PayloadStore, CorruptDeltaInvalidatesExactlyItsChainSuffix) {
  // full@1, deltas 2..8, full@9, deltas 10..12; bit-flip the delta at 5.
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::bit_flip(0, 5));
  StableStore store(tight_model(8), CheckpointMode::kIncremental, 1,
                    faults);
  for (long ordinal = 1; ordinal <= 12; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));

  // Ordinals 1..4 precede the corruption: chains intact.
  for (long ordinal = 1; ordinal <= 4; ++ordinal) {
    EXPECT_TRUE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal));
  }
  // 5..8 sit on the rotten link: exactly this suffix is unrestorable.
  for (long ordinal = 5; ordinal <= 8; ++ordinal) {
    EXPECT_FALSE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), std::nullopt) << ordinal;
  }
  // The next full image restarts the chain: 9..12 are fine again.
  for (long ordinal = 9; ordinal <= 12; ++ordinal) {
    EXPECT_TRUE(store.chain_verifies(0, ordinal)) << ordinal;
    EXPECT_EQ(store.restore_payload(0, ordinal), payload_at(ordinal));
  }
  EXPECT_EQ(store.scan_restore(0).ordinal, 12);
}

TEST(PayloadStore, ScanFallsBackPastCorruptSuffix) {
  // No later full anchor: corruption at 5 pushes restore back to 4.
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::bit_flip(0, 5));
  StableStore store(tight_model(64), CheckpointMode::kIncremental, 1,
                    faults);
  for (long ordinal = 1; ordinal <= 8; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));
  const auto scan = store.scan_restore(0);
  EXPECT_EQ(scan.ordinal, 4);
  EXPECT_EQ(scan.corrupt_skipped, 4);  // 5, 6, 7, 8
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(4));
}

TEST(PayloadStore, TornPayloadWriteIsRejectedWholesale) {
  store::StorageFaultPlan faults;
  faults.faults.push_back(store::StorageFaultPlan::torn_write(0, 2));
  StableStore store(tight_model(1), CheckpointMode::kFull, 1, faults);
  store.write_payload(0, payload_at(1), 1.0);
  store.write_payload(0, payload_at(2), 2.0);
  EXPECT_FALSE(store.verify_record(0, 2));
  EXPECT_EQ(store.restore_payload(0, 2), std::nullopt);
  EXPECT_EQ(store.restore_latest_payload(0), payload_at(1));
}

TEST(PayloadStore, GcKeepsFullRecordAnchors) {
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 1);
  for (long ordinal = 1; ordinal <= 11; ++ordinal)
    store.write_payload(0, payload_at(ordinal),
                        static_cast<double>(ordinal));
  // Newest restore point is 11 (delta); its chain starts at the full
  // record 9. GC down to one restore point must keep 9 and 10 alive.
  store.collect_garbage(1);
  const auto records = store.records_of(0);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().ordinal, 9);
  EXPECT_TRUE(records.front().full_image);
  EXPECT_EQ(store.restore_payload(0, 11), payload_at(11));
  EXPECT_EQ(store.restore_payload(0, 3), std::nullopt);  // collected
}

// ---------------------------------------------------------------------------
// Snapshot serialization and engine capture wiring
// ---------------------------------------------------------------------------

mp::Program capture_program() {
  benchws::RingParams params;
  params.iterations = 6;
  params.compute_cost = 1.0;
  params.checkpoint = true;
  return benchws::ring_exchange(params);
}

TEST(SnapshotCapture, SerializationIsDeterministic) {
  const mp::Program program = capture_program();
  std::vector<std::string> first, second;
  for (auto* sink : {&first, &second}) {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = [sink](int, const sim::VmSnapshot& state) {
      sink->push_back(sim::serialize_snapshot(state));
    };
    sim::Engine engine(program, opts);
    engine.run();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(SnapshotCapture, StoreCaptureFnRoundTripsThroughTheStore) {
  const mp::Program program = capture_program();
  // Shadow run records the serialized payloads the capture hook produces.
  std::vector<std::vector<std::string>> expected(4);
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = [&expected](int proc,
                                             const sim::VmSnapshot& state) {
      expected[static_cast<std::size_t>(proc)].push_back(
          sim::serialize_snapshot(state));
    };
    sim::Engine engine(program, opts);
    engine.run();
  }
  // Store-backed run: every record must decode back to those payloads.
  StableStore store(tight_model(4), CheckpointMode::kIncremental, 4);
  {
    sim::SimOptions opts;
    opts.nprocs = 4;
    opts.checkpoint_capture_fn = sim::store_capture_fn(store);
    sim::Engine engine(program, opts);
    engine.run();
  }
  for (int proc = 0; proc < 4; ++proc) {
    const auto& payloads = expected[static_cast<std::size_t>(proc)];
    ASSERT_FALSE(payloads.empty());
    ASSERT_EQ(store.write_count(proc),
              static_cast<long>(payloads.size()));
    for (long ordinal = 1;
         ordinal <= static_cast<long>(payloads.size()); ++ordinal)
      EXPECT_EQ(store.restore_payload(proc, ordinal),
                payloads[static_cast<std::size_t>(ordinal - 1)])
          << "proc " << proc << " ordinal " << ordinal;
    EXPECT_GT(store.bytes_stored(proc), 0);
  }
}

}  // namespace
