// Head-node join with state transfer: replay mode (JOSHUA v0.1, Section 4)
// and snapshot mode (the paper's future-work extension).
#include <gtest/gtest.h>

#include "joshua/joshua_harness.h"

namespace {

using namespace joshuatest;

/// The spec a record carries on the wire (name, index and count included).
pbs::JobSpec wire_spec(const pbs::Job& job) {
  net::Writer w;
  pbs::encode_job(w, job);
  sim::Payload buf = w.take();
  net::Reader r(buf);
  r.u64();  // job id
  return pbs::decode_job_spec(r);
}

class JoinTest : public ::testing::TestWithParam<joshua::TransferMode> {};

TEST_P(JoinTest, JoinerInheritsQueueState) {
  joshua::ClusterOptions options = fast_options(3, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  // Start only heads 0 and 1.
  cluster.joshua_server(0).start();
  cluster.joshua_server(1).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).group().view().size() == 2;
  }));

  joshua::Client& client = cluster.make_jclient();
  pbs::JobId a = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  pbs::JobId b = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  ASSERT_NE(a, pbs::kInvalidJob);
  ASSERT_NE(b, pbs::kInvalidJob);

  // Head 2 joins late.
  cluster.joshua_server(2).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(2).group().view().size() == 3;
  }, sim::seconds(60)));

  // The joiner's PBS server must know both jobs.
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(2).find_job(a).has_value() &&
           cluster.pbs_server(2).find_job(b).has_value();
  }, sim::seconds(60)))
      << "state transfer must rebuild the queue at the joiner";
}

TEST_P(JoinTest, CommandsAfterJoinApplyAtJoiner) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  jsub_sync(cluster, client, quick_job(sim::seconds(300)));

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  pbs::JobId later = jsub_sync(cluster, client, quick_job(sim::seconds(300)));
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(later).has_value();
  }));
  cluster.sim().run_for(sim::seconds(2));
  EXPECT_TRUE(heads_consistent(cluster));
}

TEST_P(JoinTest, CrashedHeadRejoinsAndRecoversState) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId id = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  ASSERT_NE(id, pbs::kInvalidJob);

  cluster.net().crash_host(cluster.head_hosts()[1]);
  ASSERT_TRUE(cluster.run_until_converged());
  // Note: the crashed head's PBS server keeps durable state on disk, but
  // the paper treats a rejoining head as fresh -- state comes via transfer.
  cluster.net().restart_host(cluster.head_hosts()[1]);
  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));

  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(id).has_value();
  }, sim::seconds(60)));
  // And the rejoined head serves commands again.
  pbs::JobId next = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  EXPECT_NE(next, pbs::kInvalidJob);
  cluster.sim().run_for(sim::seconds(2));
  EXPECT_TRUE(heads_consistent(cluster));
}

// A live sub-job's record is the same however a head came by it: expanded
// from the array submit at the donor, rebuilt at the joiner from the replay
// rewrite of a partially finished array or from a snapshot, or decoded from
// a listing.
TEST_P(JoinTest, ArraySubJobRecordsMatchDonor) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = GetParam();
  joshua::Cluster cluster(options);
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  pbs::JobSpec spec = quick_job(sim::seconds(600));
  spec.name = "arr";
  spec.array_count = 4;
  pbs::JobId base = jsub_sync(cluster, client, spec);
  ASSERT_NE(base, pbs::kInvalidJob);
  // Two finished sub-jobs make the replay log rewrite the array.
  for (pbs::JobId id : {base + 1, base + 3}) {
    bool deleted = false;
    client.jdel(id, [&](std::optional<pbs::SimpleResponse> r) {
      deleted = r.has_value() && r->status == pbs::Status::kOk;
    });
    ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] { return deleted; }));
  }

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return !cluster.joshua_server(1).replaying() &&
           cluster.pbs_server(1).find_job(base + 2).has_value();
  }, sim::seconds(60)));

  std::optional<pbs::StatResponse> listing;
  client.jstat(pbs::StatRequest{}, [&](std::optional<pbs::StatResponse> r) {
    listing = std::move(r);
  });
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return listing.has_value();
  }));
  auto listed = [&](pbs::JobId id) -> std::optional<pbs::Job> {
    for (const pbs::Job& job : listing->jobs)
      if (job.id == id) return job;
    return std::nullopt;
  };

  for (pbs::JobId id : {base, base + 2}) {
    int32_t index = static_cast<int32_t>(id - base);
    std::optional<pbs::Job> records[] = {cluster.pbs_server(0).find_job(id),
                                         cluster.pbs_server(1).find_job(id),
                                         listed(id)};
    for (const std::optional<pbs::Job>& job : records) {
      ASSERT_TRUE(job.has_value()) << "sub-job " << index;
      pbs::JobSpec s = wire_spec(*job);
      EXPECT_EQ(s.name, "arr[" + std::to_string(index) + "]");
      EXPECT_EQ(s.array_index, index);
      EXPECT_EQ(s.array_count, 4u) << "sub-job " << index;
    }
  }
  // Both transfers rebuild the live sub-jobs around one shared spec.
  EXPECT_EQ(cluster.pbs_server(1).find_job(base)->spec,
            cluster.pbs_server(1).find_job(base + 2)->spec);
}

INSTANTIATE_TEST_SUITE_P(
    TransferModes, JoinTest,
    ::testing::Values(joshua::TransferMode::kReplay,
                      joshua::TransferMode::kSnapshot),
    [](const ::testing::TestParamInfo<joshua::TransferMode>& info) {
      return info.param == joshua::TransferMode::kReplay ? "Replay"
                                                         : "Snapshot";
    });

TEST(JoinReplayCompaction, CompletedJobsNotReplayed) {
  joshua::Cluster cluster(fast_options(2, 1));
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  // Run two jobs to completion, keep one queued.
  pbs::JobId done1 = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  pbs::JobId done2 = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(0).find_job(done2);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)));
  pbs::JobId live = jsub_sync(cluster, client, quick_job(sim::seconds(600)));
  (void)done1;

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.pbs_server(1).find_job(live).has_value() ||
           !cluster.pbs_server(1).jobs().empty();
  }, sim::seconds(60)));
  cluster.sim().run_for(sim::seconds(5));

  // Compaction: the completed jobs are not replayed at the joiner (they
  // would re-run!), only the live one is -- and under its ORIGINAL id.
  EXPECT_EQ(cluster.pbs_server(1).jobs().size(), 1u);
  EXPECT_TRUE(cluster.pbs_server(1).find_job(live).has_value());
  EXPECT_EQ(cluster.mom(0).jobs_executed(), 3u)
      << "done1 + done2 + live ran once each; the replay re-ran nothing";
  EXPECT_GE(cluster.joshua_server(1).stats().replays_applied.own(), 1u);
}

// A replay-mode joiner rebuilds the queue one command at a time. Its PBS
// must not schedule on the half-rebuilt queue: with the preempt policy it
// would launch the first replayed job on a node the group has given to a
// later, higher-priority one, then multicast an ordered preemption of that
// launch -- a decision no group member's state called for.
TEST(JoinReplayScheduling, JoinerSchedulesNothingMidReplay) {
  joshua::ClusterOptions options = fast_options(3, 1);
  options.sched.policy = "preempt";
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();

  pbs::JobSpec low = quick_job(sim::seconds(600));
  low.priority = 0;
  pbs::JobSpec high = quick_job(sim::seconds(600));
  high.priority = 10;
  pbs::JobId low_id = jsub_sync(cluster, client, low);
  ASSERT_TRUE(wait_state_everywhere(cluster, low_id, pbs::JobState::kRunning));
  pbs::JobId high_id = jsub_sync(cluster, client, high);
  ASSERT_TRUE(wait_state_everywhere(cluster, high_id, pbs::JobState::kRunning));
  ASSERT_TRUE(wait_state_everywhere(cluster, low_id, pbs::JobState::kQueued));
  // Every head's scheduler asks once; the repeats are ordered no-ops.
  const uint64_t preempts =
      cluster.joshua_server(0).stats().preempts_ordered.own();
  ASSERT_GE(preempts, 1u);

  cluster.net().crash_host(cluster.head_hosts()[2]);
  ASSERT_TRUE(cluster.run_until_converged());
  cluster.net().restart_host(cluster.head_hosts()[2]);
  cluster.joshua_server(2).start();
  ASSERT_TRUE(cluster.run_until_converged(sim::seconds(60)));
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return !cluster.joshua_server(2).replaying() &&
           cluster.pbs_server(2).find_job(high_id).has_value();
  }, sim::seconds(60)));
  cluster.sim().run_for(sim::seconds(5));

  EXPECT_EQ(cluster.joshua_server(0).stats().preempts_ordered.own(), preempts)
      << "the joiner ordered a preemption while replaying";
  EXPECT_EQ(cluster.mom(0).jobs_executed(), 2u);
  EXPECT_TRUE(heads_consistent(cluster));
}

TEST(JoinSnapshot, SnapshotPreservesJobIdsAndStates) {
  joshua::ClusterOptions options = fast_options(2, 1);
  options.transfer = joshua::TransferMode::kSnapshot;
  joshua::Cluster cluster(options);
  cluster.joshua_server(0).start();
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    return cluster.joshua_server(0).in_service();
  }));
  joshua::Client& client = cluster.make_jclient();
  pbs::JobId done = jsub_sync(cluster, client, quick_job(sim::msec(200)));
  ASSERT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(0).find_job(done);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)));

  cluster.joshua_server(1).start();
  ASSERT_TRUE(cluster.run_until_converged());
  EXPECT_TRUE(testutil::run_until(cluster.sim(), [&] {
    auto j = cluster.pbs_server(1).find_job(done);
    return j && j->state == pbs::JobState::kComplete;
  }, sim::seconds(60)))
      << "snapshot carries even completed-job history, unlike replay";
}

}  // namespace
