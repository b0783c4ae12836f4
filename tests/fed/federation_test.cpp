// Federation integration: independent ordering groups per shard behind the
// router. Covers routed submits (glob and hash placement), the merged
// jstat-all read, the mass delete, misrouted-id rejection at both the
// router and the server, and the jstat local-read fast path.
#include "fed/federation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/rpc.h"
#include "testutil.h"

namespace {

fed::FederationOptions fast_fed(int shards, int heads_per_shard,
                                int computes_per_shard, uint64_t seed = 1) {
  fed::FederationOptions options;
  options.shard_count = shards;
  options.heads_per_shard = heads_per_shard;
  options.computes_per_shard = computes_per_shard;
  options.cal = sim::fast_calibration();
  options.seed = seed;
  return options;
}

pbs::JobSpec queued_job(const std::string& queue,
                        sim::Duration run_time = sim::seconds(300)) {
  pbs::JobSpec spec;
  spec.name = "t";
  spec.queue = queue;
  spec.run_time = run_time;
  return spec;
}

pbs::JobId jsub_sync(fed::Federation& f, fed::Router& router,
                     pbs::JobSpec spec) {
  std::optional<pbs::SubmitResponse> resp;
  bool done = false;
  router.jsub(std::move(spec), [&](std::optional<pbs::SubmitResponse> r) {
    done = true;
    resp = r;
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  if (!resp || resp->status != pbs::Status::kOk) return pbs::kInvalidJob;
  return resp->job_id;
}

TEST(Federation, SingleShardMatchesMonolithicNumbering) {
  fed::Federation f(fast_fed(1, 2, 1));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();
  // No sharding: ids come out 1, 2, 3 exactly as joshua::Cluster hands
  // them out -- the behaviour-identical default the baselines depend on.
  EXPECT_EQ(jsub_sync(f, router, queued_job("batch")), 1u);
  EXPECT_EQ(jsub_sync(f, router, queued_job("debug")), 2u);
  EXPECT_EQ(jsub_sync(f, router, queued_job("gpu")), 3u);
  EXPECT_EQ(router.stats().rejects.own(), 0u);
}

TEST(Federation, GlobRoutedSubmitsLandInOwningShards) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.queue_globs = {{"batch*"}, {"*"}};
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();

  pbs::JobId batch_id = jsub_sync(f, router, queued_job("batch"));
  pbs::JobId debug_id = jsub_sync(f, router, queued_job("debug"));
  ASSERT_NE(batch_id, pbs::kInvalidJob);
  ASSERT_NE(debug_id, pbs::kInvalidJob);
  EXPECT_EQ(f.shard_map().owner_of(batch_id), 0u);
  EXPECT_EQ(f.shard_map().owner_of(debug_id), 1u);
  EXPECT_EQ(batch_id, f.shard_map().first_id(0));
  EXPECT_EQ(debug_id, f.shard_map().first_id(1));

  // Every replica of the owning shard has the job; the other shard's
  // replicas have never heard of it -- the groups share nothing.
  for (size_t h = 0; h < f.head_count(); ++h) {
    bool owner = f.shard_of_head(h) == 0;
    EXPECT_EQ(f.pbs_server(h).find_job(batch_id).has_value(), owner)
        << "head " << h;
  }
}

TEST(Federation, JstatAllMergesShardsSortedById) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.queue_globs = {{"batch*"}, {"*"}};
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();

  pbs::JobId debug_id = jsub_sync(f, router, queued_job("debug"));
  pbs::JobId batch_id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(debug_id, pbs::kInvalidJob);
  ASSERT_NE(batch_id, pbs::kInvalidJob);

  std::optional<pbs::StatResponse> all;
  bool done = false;
  pbs::StatRequest req;  // job_id = 0: every shard
  router.jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    all = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->status, pbs::Status::kOk);
  ASSERT_EQ(all->jobs.size(), 2u);
  // batch_id (shard 0's block) sorts before debug_id (shard 1's block)
  // even though the debug job was submitted first.
  EXPECT_EQ(all->jobs[0].id, batch_id);
  EXPECT_EQ(all->jobs[1].id, debug_id);
  EXPECT_EQ(router.stats().fanouts.own(), 1u);
  EXPECT_EQ(router.stats().fanout_reads.own(), 2u);
}

// The merge appends the shards' sorted parts in shard order, so it must
// not depend on the order the replies arrive in. Busy CPUs make shard 0's
// heads answer last and shard 2's first; the listing still comes back
// complete, with ascending ids and no duplicates.
TEST(Federation, JstatAllMergesRepliesArrivingInReverseShardOrder) {
  fed::FederationOptions options = fast_fed(3, 2, 1);
  options.queue_globs = {{"a*"}, {"b*"}, {"*"}};
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();

  std::set<pbs::JobId> submitted;
  auto submit = [&](const std::string& queue, uint32_t count) {
    pbs::JobSpec spec = queued_job(queue);
    spec.array_count = count;
    pbs::JobId base = jsub_sync(f, router, spec);
    ASSERT_NE(base, pbs::kInvalidJob);
    for (uint32_t i = 0; i < std::max(count, 1u); ++i)
      submitted.insert(base + i);
  };
  submit("c", 3);  // shard 2 first: submission order is not id order
  submit("b", 0);
  submit("a", 5);
  submit("b", 0);
  ASSERT_EQ(submitted.size(), 10u);

  // Shard s's heads answer after (2 - s) * 10 ms of queued CPU work.
  auto load_heads = [&] {
    for (size_t h = 0; h < f.head_count(); ++h) {
      sim::Duration busy = sim::msec(10 * (2 - f.shard_of_head(h)));
      f.net().host(f.head_hosts()[h]).execute(busy, [] {});
    }
  };
  load_heads();
  std::vector<uint32_t> arrivals;
  for (uint32_t s = 0; s < 3; ++s)
    router.client(s).jstat(pbs::StatRequest{},
                           [&, s](std::optional<pbs::StatResponse> r) {
                             if (r) arrivals.push_back(s);
                           });
  testutil::run_until(f.sim(), [&] { return arrivals.size() == 3; },
                      sim::seconds(60));
  ASSERT_EQ(arrivals, (std::vector<uint32_t>{2, 1, 0}))
      << "the loaded heads must reply in reverse shard order";

  load_heads();
  std::optional<pbs::StatResponse> all;
  bool done = false;
  router.jstat(pbs::StatRequest{}, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    all = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->status, pbs::Status::kOk);
  std::vector<pbs::JobId> ids;
  for (const pbs::Job& job : all->jobs) ids.push_back(job.id);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "no duplicates";
  EXPECT_EQ(std::set<pbs::JobId>(ids.begin(), ids.end()), submitted);
}

TEST(Federation, MassDeleteSpansShards) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.queue_globs = {{"batch*"}, {"*"}};
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();

  std::vector<pbs::JobId> ids;
  ids.push_back(jsub_sync(f, router, queued_job("batch")));
  ids.push_back(jsub_sync(f, router, queued_job("batch2")));
  ids.push_back(jsub_sync(f, router, queued_job("debug")));
  for (pbs::JobId id : ids) ASSERT_NE(id, pbs::kInvalidJob);

  std::optional<uint64_t> deleted;
  bool done = false;
  router.jdel_all([&](std::optional<uint64_t> n) {
    done = true;
    deleted = n;
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(120));
  ASSERT_TRUE(deleted.has_value());
  EXPECT_EQ(*deleted, 3u);
  EXPECT_EQ(router.stats().mass_deleted.own(), 3u);
  for (pbs::JobId id : ids) {
    auto job = f.pbs_server(0).find_job(id);
    if (!job) job = f.pbs_server(2).find_job(id);
    ASSERT_TRUE(job.has_value());
    EXPECT_TRUE(job->cancelled) << "job " << id;
  }
}

TEST(Federation, MisroutedIdsRejectedAtBothLayers) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();
  pbs::JobId id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(id, pbs::kInvalidJob);

  // Router layer: an id beyond every shard's block never touches the wire.
  pbs::JobId impossible = f.shard_map().first_id(2) + 7;
  std::optional<pbs::SimpleResponse> resp;
  bool done = false;
  router.jdel(impossible, [&](std::optional<pbs::SimpleResponse> r) {
    done = true;
    resp = r;
  });
  EXPECT_TRUE(done) << "rejected locally, synchronously";
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, pbs::Status::kUnknownJob);
  EXPECT_EQ(router.stats().rejects.own(), 1u);

  // Server layer: a direct client asking the wrong shard for a perfectly
  // valid id is turned away before the ordered path.
  uint32_t owner = *f.shard_map().owner_of(id);
  std::optional<pbs::StatResponse> stat;
  done = false;
  pbs::StatRequest req;
  req.job_id = id;
  router.client(1 - owner).jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    stat = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->status, pbs::Status::kUnknownJob);
  uint64_t shard_rejects = 0;
  for (size_t h = 0; h < f.head_count(); ++h)
    shard_rejects += f.joshua_server(h).stats().shard_rejects.own();
  EXPECT_EQ(shard_rejects, 1u);
}

TEST(Federation, JstatLocalFastPathSkipsOrdering) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.jstat_local = true;
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();
  pbs::JobId id = jsub_sync(f, router, queued_job("batch"));
  ASSERT_NE(id, pbs::kInvalidJob);

  uint64_t ordered_before = 0;
  for (size_t h = 0; h < f.head_count(); ++h)
    ordered_before += f.joshua_server(h).stats().commands_executed.own();

  std::optional<pbs::StatResponse> stat;
  bool done = false;
  pbs::StatRequest req;
  req.job_id = id;
  router.jstat(req, [&](std::optional<pbs::StatResponse> r) {
    done = true;
    stat = std::move(r);
  });
  testutil::run_until(f.sim(), [&] { return done; }, sim::seconds(60));
  ASSERT_TRUE(stat.has_value());
  ASSERT_EQ(stat->status, pbs::Status::kOk);
  ASSERT_EQ(stat->jobs.size(), 1u);
  EXPECT_EQ(stat->jobs[0].id, id);

  uint64_t served_local = 0, ordered_after = 0;
  for (size_t h = 0; h < f.head_count(); ++h) {
    served_local += f.joshua_server(h).stats().jstat_local_served.own();
    ordered_after += f.joshua_server(h).stats().commands_executed.own();
  }
  EXPECT_EQ(served_local, 1u) << "answered off the local replica";
  EXPECT_EQ(ordered_after, ordered_before)
      << "the read never entered the ordered path";
}

TEST(Federation, BatchedOrderingKeepsShardInvariants) {
  // The batching/window knobs must reach every shard's group and must not
  // disturb the per-shard replication invariants: every replica of a shard
  // agrees on its job set, no job leaks across shards, all submits land.
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.order_batch = 64;
  options.order_window = 16;
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  for (size_t h = 0; h < f.head_count(); ++h) {
    EXPECT_EQ(f.joshua_server(h).group().config().order_batch, 64u);
    EXPECT_EQ(f.joshua_server(h).group().config().inflight_window, 16u);
  }

  fed::Router& router = f.make_router();
  std::vector<pbs::JobId> ids;
  for (int i = 0; i < 24; ++i) {
    pbs::JobId id =
        jsub_sync(f, router, queued_job("q" + std::to_string(i % 6)));
    ASSERT_NE(id, pbs::kInvalidJob) << "submit " << i;
    ids.push_back(id);
  }
  f.sim().run_for(sim::seconds(2));  // let the ordered commands settle

  for (pbs::JobId id : ids) {
    std::optional<uint32_t> owner = f.shard_map().owner_of(id);
    ASSERT_TRUE(owner.has_value()) << "job " << id;
    for (size_t h = 0; h < f.head_count(); ++h) {
      EXPECT_EQ(f.pbs_server(h).find_job(id).has_value(),
                f.shard_of_head(h) == owner)
          << "job " << id << " at head " << h;
    }
  }
}

TEST(Federation, SurvivesHeadLossPerShard) {
  fed::FederationOptions options = fast_fed(2, 2, 1);
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();
  ASSERT_NE(jsub_sync(f, router, queued_job("batch")), pbs::kInvalidJob);

  // Kill one head of shard 0; the shard reforms with its survivor and both
  // shards keep accepting commands. Shard 1 never notices.
  f.faults().crash_at(f.head_hosts()[0], f.sim().now() + sim::msec(10));
  f.sim().run_for(sim::msec(20));
  ASSERT_TRUE(f.run_until_converged());
  EXPECT_NE(jsub_sync(f, router, queued_job("batch")), pbs::kInvalidJob);
  EXPECT_NE(jsub_sync(f, router, queued_job("other")), pbs::kInvalidJob);
}

TEST(Federation, StreamedListingMergesWhileLocalReadsInterleave) {
  // Each shard's answer to a whole-queue jstat is larger than one response
  // frame, so it streams as a train of fragments. The merged listing must be
  // every shard's table in id order, and single-id reads issued while the
  // trains are on the hub must never wait behind a whole listing.
  fed::FederationOptions options = fast_fed(2, 2, 1);
  options.jstat_local = true;
  options.pbs_persist = false;
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  pbs::JobSpec spec = queued_job("backlog", sim::hours(8));
  for (size_t h = 0; h < f.head_count(); ++h)
    f.pbs_server(h).preload_queued(1500, spec);
  fed::Router& router = f.make_router();
  const uint64_t fragments_before =
      f.sim().telemetry().metrics().find_counter("net.rpc_fragments")->value;

  struct Read {
    sim::Time issued;
    sim::Time answered{0};
  };
  std::vector<Read> reads;
  auto read = [&](size_t i) {
    pbs::StatRequest req;
    uint32_t shard = static_cast<uint32_t>(i % 2);
    req.job_id = f.shard_map().first_id(shard) + i;
    reads.push_back(Read{f.sim().now()});
    router.jstat(req, [&reads, &f, i](std::optional<pbs::StatResponse> r) {
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->jobs.size(), 1u);
      reads[i].answered = f.sim().now();
    });
  };

  read(0);
  f.sim().run_for(sim::msec(50));
  ASSERT_GT(reads[0].answered.us, 0);
  const int64_t idle_us = (reads[0].answered - reads[0].issued).us;

  std::optional<pbs::StatResponse> listing;
  bool listed = false;
  router.jstat(pbs::StatRequest{}, [&](std::optional<pbs::StatResponse> r) {
    listed = true;
    listing = std::move(r);
  });
  while (!listed && f.sim().now() < sim::Time{0} + sim::seconds(120)) {
    read(reads.size());
    f.sim().run_for(sim::usec(500));
  }
  f.sim().run_for(sim::seconds(1));

  ASSERT_TRUE(listing.has_value());
  ASSERT_EQ(listing->status, pbs::Status::kOk);
  // Shard 0's ids all sort below shard 1's, so the shards' own tables
  // concatenated are the merged order.
  std::vector<pbs::JobId> expected;
  for (uint32_t shard = 0; shard < 2; ++shard) {
    size_t h = 0;
    while (f.shard_of_head(h) != shard) ++h;
    for (const auto& [id, job] : f.pbs_server(h).jobs()) expected.push_back(id);
  }
  std::vector<pbs::JobId> got;
  for (const pbs::Job& job : listing->jobs) got.push_back(job.id);
  EXPECT_EQ(got, expected) << "every shard's jobs, ascending, once";
  EXPECT_EQ(got.size(), 3000u);
  EXPECT_GT(f.sim().telemetry().metrics().find_counter("net.rpc_fragments")
                ->value - fragments_before,
            2u)
      << "the listings streamed";

  // A read crosses the hub twice and each way can meet one fragment of each
  // shard's train: four fragment times (1.3 ms each at 100 Mbit/s) on top
  // of an idle read. A whole listing would hold the hub for ~17 ms.
  const sim::NetworkConfig& net = f.net().config();
  const int64_t fragment_us = static_cast<int64_t>(
      static_cast<double>(net::kMaxResponseChunk + 25 +
                          net.frame_overhead_bytes) *
      8.0 / net.bandwidth_bps * 1e6);
  ASSERT_GT(reads.size(), 10u);
  for (const Read& r : reads) {
    ASSERT_GT(r.answered.us, 0);
    EXPECT_LE((r.answered - r.issued).us, idle_us + 4 * fragment_us);
  }
}

}  // namespace
