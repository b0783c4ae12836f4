// NACK-retransmission edge cases in the reliability layer: a healed
// partition recovers lost data via NACK -> retransmit, duplicate NACKs for
// the same gap are deduplicated inside the nacked_ window (and re-armed
// after it expires), redundant retransmissions count as spurious, a frame
// still queued on the sender's CPU draws no NACK, and the Stats counter
// agrees with the "gcs.nacks_sent" telemetry counter.
//
// The suspect timeout is raised far above every partition in these tests so
// no view change fires: this exercises the reliability layer alone, not the
// membership protocol.
#include <gtest/gtest.h>

#include "gcs_harness.h"

namespace {

using gcstest::GcsHarness;

uint64_t total_nacks_sent(const GcsHarness& h) {
  uint64_t total = 0;
  for (const auto& m : h.members) total += m->stats().nacks_sent.own();
  return total;
}

uint64_t nacks_counter(GcsHarness& h) {
  const auto* cell = h.sim.telemetry().metrics().find_counter("gcs.nacks_sent");
  return cell ? cell->value : 0;
}

size_t deliveries_of(const gcstest::MemberLog& log, gcs::MemberId sender,
                     uint64_t seq) {
  size_t n = 0;
  for (const auto& d : log.delivered) {
    if (d.sender == sender && d.seq == seq) ++n;
  }
  return n;
}

TEST(Nack, HealedPartitionRecoversViaRetransmit) {
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);  // no view change in this test
    cfg.flush_timeout = sim::seconds(60);
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));

  // Cut member 1 off, multicast while it cannot hear, then heal. The only
  // way member 1 can ever see the message is a NACK-triggered retransmit
  // prompted by member 0's periodic cut advertising sent_upto.
  sim::Time t0 = h.sim.now();
  h.faults.partition(h.hosts[1], 1, t0 + sim::msec(10), t0 + sim::msec(200));
  h.sim.run_for(sim::msec(50));
  h.members[0]->multicast(h.payload_of(7));
  h.sim.run_for(sim::msec(100));
  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 0u)
      << "partitioned member must not have the message yet";

  // Heal and give the NACK/retransmit cycle time to complete.
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], 1) > 0; },
      sim::seconds(5)));

  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 1u)
      << "retransmit must deliver exactly once";
  EXPECT_GE(h.members[1]->stats().nacks_sent.own(), 1u);
  EXPECT_GE(h.members[0]->stats().retransmits_served.own(), 1u);
  EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[1].delivered));
  EXPECT_TRUE(
      GcsHarness::prefix_consistent(h.logs[0].delivered, h.logs[1].delivered));
  // No spurious view change happened: reliability-layer-only recovery.
  EXPECT_TRUE(h.converged(2));
  EXPECT_EQ(nacks_counter(h), total_nacks_sent(h));
}

TEST(Nack, DuplicateNacksDedupedWithinWindowRearmedAfter) {
  // Heartbeat cuts every 10ms re-announce the gap ~6 times per dedup window
  // (nack_delay * 4 = 60ms). A slow retransmit path (send_proc 150ms) keeps
  // the gap open across several windows, so:
  //   * without dedup there would be one NACK per observation (dozens);
  //   * with dedup there is about one per expired window (a few), and
  //   * at least two in total, proving the window re-arms rather than
  //     suppressing the gap forever.
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);
    cfg.flush_timeout = sim::seconds(60);
    cfg.heartbeat_interval = sim::msec(10);
    cfg.nack_delay = sim::msec(15);
    cfg.send_proc = sim::msec(150);  // retransmission leaves ~3 windows open
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));

  // The data frame leaves member 0's CPU send_proc after the multicast
  // (~t0+160ms), so the partition must outlast it for the frame to be lost.
  sim::Time t0 = h.sim.now();
  h.faults.partition(h.hosts[1], 1, t0 + sim::msec(5), t0 + sim::msec(300));
  h.sim.run_for(sim::msec(10));
  h.members[0]->multicast(h.payload_of(9));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], 1) > 0; },
      sim::seconds(10)));
  // Let any still-pending NACK timers and duplicate retransmits land.
  h.sim.run_for(sim::seconds(1));

  uint64_t nacks = h.members[1]->stats().nacks_sent.own();
  EXPECT_GE(nacks, 2u) << "the dedup window must re-arm after expiring";
  EXPECT_LE(nacks, 6u) << "per-observation NACKs were not deduplicated";
  // Duplicate retransmits (one per NACK that got through) collapse in the
  // ordering buffer: still exactly one delivery.
  EXPECT_EQ(deliveries_of(h.logs[1], h.hosts[0], 1), 1u);
  EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[1].delivered));
  EXPECT_EQ(nacks_counter(h), total_nacks_sent(h))
      << "Stats::nacks_sent and the gcs.nacks_sent counter must agree";
}

TEST(Nack, RedundantRetransmitCountsAsSpurious) {
  // The lost-frame schedule above: several deduplicated NACKs each draw a
  // retransmission, but only the first one to land is new. Every later one
  // is already held and counts as spurious.
  GcsHarness h(2, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);
    cfg.flush_timeout = sim::seconds(60);
    cfg.heartbeat_interval = sim::msec(10);
    cfg.nack_delay = sim::msec(15);
    cfg.send_proc = sim::msec(150);
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(2));

  sim::Time t0 = h.sim.now();
  h.faults.partition(h.hosts[1], 1, t0 + sim::msec(5), t0 + sim::msec(300));
  h.sim.run_for(sim::msec(10));
  h.members[0]->multicast(h.payload_of(9));
  ASSERT_TRUE(testutil::run_until(
      h.sim, [&] { return deliveries_of(h.logs[1], h.hosts[0], 1) > 0; },
      sim::seconds(10)));
  h.sim.run_for(sim::seconds(1));

  uint64_t served = h.members[0]->stats().retransmits_served.own();
  ASSERT_GE(served, 2u) << "the schedule must draw a redundant retransmit";
  EXPECT_EQ(h.members[1]->stats().nacks_spurious.own(), served - 1);
  EXPECT_EQ(h.members[0]->stats().nacks_spurious.own(), 0u);
  const auto* cell =
      h.sim.telemetry().metrics().find_counter("gcs.nacks_spurious");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->value, served - 1);
}

TEST(Nack, FrameQueuedOnSenderCpuIsNotNacked) {
  // No loss at all, but each data frame waits send_proc on the sender's CPU
  // while 10ms heartbeats go out directly. A heartbeat that announced a
  // frame still on the CPU queue would open a gap at the receivers and draw
  // a NACK (and a retransmission) for a frame that was never lost.
  GcsHarness h(3, 1, [](gcs::GroupConfig& cfg) {
    cfg.suspect_timeout = sim::seconds(30);
    cfg.flush_timeout = sim::seconds(60);
    cfg.heartbeat_interval = sim::msec(10);
    cfg.nack_delay = sim::msec(15);
    cfg.send_proc = sim::msec(150);
  });
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (int i = 0; i < 6; ++i) {
    h.members[static_cast<size_t>(i) % 3]->multicast(h.payload_of(i));
    h.sim.run_for(sim::msec(40));
  }
  ASSERT_TRUE(testutil::run_until(h.sim, [&] {
    for (const auto& log : h.logs)
      if (log.delivered.size() < 6) return false;
    return true;
  }));
  h.sim.run_for(sim::seconds(1));

  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.logs[i].delivered.size(), 6u);
    EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[i].delivered));
    EXPECT_EQ(h.members[i]->stats().retransmits_served.own(), 0u);
  }
  EXPECT_EQ(total_nacks_sent(h), 0u)
      << "a frame queued on the sender's CPU is not lost";
  EXPECT_EQ(nacks_counter(h), 0u);
}

TEST(Nack, NoGapMeansNoNacks) {
  GcsHarness h(3, 1);
  h.join_all();
  ASSERT_TRUE(h.run_until_converged(3));
  for (int i = 0; i < 10; ++i) {
    h.members[static_cast<size_t>(i) % 3]->multicast(h.payload_of(i));
    h.sim.run_for(sim::msec(20));
  }
  h.sim.run_for(sim::seconds(1));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(h.logs[i].delivered.size(), 10u);
    EXPECT_TRUE(GcsHarness::fifo_clean(h.logs[i].delivered));
  }
  EXPECT_EQ(total_nacks_sent(h), 0u)
      << "a loss-free run must not NACK anything";
  EXPECT_EQ(nacks_counter(h), 0u);
}

}  // namespace
