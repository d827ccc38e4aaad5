// Unit tests for SeqRing, the flat seq-keyed map behind the reliable
// transport's sender windows and receiver reorder buffers.
#include <gtest/gtest.h>

#include "sim/seqring.h"
#include "util/error.h"

namespace {

using acfc::sim::SeqRing;

TEST(SeqRing, InsertFindErase) {
  SeqRing<long> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.find(0), nullptr);
  ring.insert(3, 30);
  ring.insert(5, 50);
  EXPECT_EQ(ring.size(), 2u);
  ASSERT_NE(ring.find(3), nullptr);
  EXPECT_EQ(*ring.find(3), 30);
  EXPECT_FALSE(ring.contains(4));
  EXPECT_EQ(ring.min_seq(), 3);
  ring.erase(3);
  EXPECT_FALSE(ring.contains(3));
  EXPECT_EQ(ring.min_seq(), 5);
  ring.erase(7);  // absent: no-op
  EXPECT_EQ(ring.size(), 1u);
}

TEST(SeqRing, DuplicateInsertIsRejected) {
  SeqRing<long> ring;
  ring.insert(2, 0);
  EXPECT_THROW(ring.insert(2, 1), acfc::util::InternalError);
}

TEST(SeqRing, EraseBelowSweepsThePrefixAndRejectsSweptKeys) {
  SeqRing<long> ring;
  for (long seq = 0; seq < 10; ++seq) ring.insert(seq, seq * 10);
  ring.erase_below(6);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.contains(5));
  EXPECT_EQ(ring.min_seq(), 6);
  EXPECT_THROW(ring.insert(4, 0), acfc::util::InternalError);
}

TEST(SeqRing, GrowsPastItsInitialCapacityKeepingEveryValue) {
  SeqRing<long> ring;
  for (long seq = 0; seq < 100; ++seq) ring.insert(seq, seq * 7);
  EXPECT_EQ(ring.size(), 100u);
  for (long seq = 0; seq < 100; ++seq) {
    ASSERT_NE(ring.find(seq), nullptr) << seq;
    EXPECT_EQ(*ring.find(seq), seq * 7);
  }
}

TEST(SeqRing, HoleBelowTheLiveWindowSurvivesGrowth) {
  // A receiver whose next expected message (0) was lost buffers 17 later
  // arrivals — one more than the initial 16 slots, so the ring grows. The
  // retransmit of 0 must still be accepted: growth must not move the sweep
  // origin past a hole.
  SeqRing<long> ring;
  for (long seq = 1; seq <= 17; ++seq) ring.insert(seq, seq);
  ring.insert(0, 0);
  EXPECT_EQ(ring.size(), 18u);
  EXPECT_EQ(ring.min_seq(), 0);
  for (long seq = 0; seq <= 17; ++seq) EXPECT_TRUE(ring.contains(seq)) << seq;
}

TEST(SeqRing, HoleInsertFarBelowTheWindowGrowsUntilItFits) {
  // 20..36 outgrow 16 slots (36 meets 20), so the ring grows to 32 slots
  // sized from that live span. The hole 4 then meets 36 modulo 32, so its
  // insert must grow the ring again rather than fail.
  SeqRing<long> ring;
  for (long seq = 20; seq <= 36; ++seq) ring.insert(seq, seq);
  ring.insert(4, 4);
  EXPECT_EQ(ring.size(), 18u);
  EXPECT_EQ(ring.min_seq(), 4);
  EXPECT_TRUE(ring.contains(4));
  for (long seq = 20; seq <= 36; ++seq) EXPECT_TRUE(ring.contains(seq)) << seq;
}

TEST(SeqRing, ClearForgetsEverythingAndRestartsAtZero) {
  SeqRing<long> ring;
  for (long seq = 0; seq < 20; ++seq) ring.insert(seq, seq);
  ring.erase_below(10);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.contains(12));
  ring.insert(0, 1);
  EXPECT_EQ(*ring.find(0), 1);
}

}  // namespace
