// Cross-layer counter parity: every component counts an event once, through
// a telemetry::Counter whose own() is the per-instance count and whose
// registry cell is the simulation-wide total. Summing own() over every
// instance that registers a name must give that name's registry cell; a
// handle copied after registration (or a second, parallel counter) would
// split the tally and break the equality.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fed/federation.h"
#include "joshua/joshua_harness.h"

namespace {

using Tally = std::map<std::string, uint64_t>;

void add_gcs(Tally& t, const gcs::GroupMember& g) {
  const gcs::GroupMember::Stats& s = g.stats();
  t["gcs.data_sent"] += s.data_sent.own();
  t["gcs.data_received"] += s.data_received.own();
  t["gcs.cuts_sent"] += s.cuts_sent.own();
  t["gcs.cuts_received"] += s.cuts_received.own();
  t["gcs.nacks_sent"] += s.nacks_sent.own();
  t["gcs.nacks_spurious"] += s.nacks_spurious.own();
  t["gcs.retransmits_served"] += s.retransmits_served.own();
  t["gcs.delivered"] += s.delivered.own();
  t["gcs.views_installed"] += s.views_installed.own();
  t["gcs.engine_msgs_sent"] += s.engine_sent.own();
  t["gcs.token.rotations"] += s.token_rotations.own();
  t["gcs.window_stalls"] += s.window_stalls.own();
}

void add_head(Tally& t, const joshua::Server& j, const pbs::Server& p,
              const std::string& host) {
  add_gcs(t, j.group());
  const joshua::Server::Stats& s = j.stats();
  t["joshua.commands_intercepted"] += s.commands_intercepted.own();
  t["joshua.commands_executed"] += s.commands_executed.own();
  t["joshua.replies_relayed"] += s.replies_relayed.own();
  t["joshua.mutex_requests"] += s.mutex_requests.own();
  t["joshua.mutex_grants"] += s.mutex_grants.own();
  t["joshua.mutex_denials"] += s.mutex_denials.own();
  t["joshua.mutex_revokes"] += s.mutex_revokes.own();
  t["joshua.dup_completions_suppressed"] +=
      s.dup_completions_suppressed.own();
  t["joshua.ordered_completions"] += s.ordered_completions.own();
  t["joshua.preempts_ordered"] += s.preempts_ordered.own();
  t["joshua.state_transfers_served"] += s.state_transfers_served.own();
  t["joshua.replays_applied"] += s.replays_applied.own();
  t["joshua.replay_divergence." + host] += s.replay_divergence.own();
  t["joshua.reports_rejected"] += s.reports_rejected.own();
  t["pbs.jstat_local"] += s.jstat_local_served.own();
  t["joshua.shard_rejects"] += s.shard_rejects.own();
  t["pbs.sched.preemptions"] += p.preempts_applied();
}

void add_router(Tally& t, const fed::Router& r) {
  const fed::Router::Stats& s = r.stats();
  t["fed.routed"] += s.routed.own();
  t["fed.fanouts"] += s.fanouts.own();
  t["fed.fanout_reads"] += s.fanout_reads.own();
  t["fed.rejects"] += s.rejects.own();
  t["fed.mass_deleted"] += s.mass_deleted.own();
}

void expect_parity(const telemetry::Registry& reg, const Tally& t) {
  for (const auto& [name, sum] : t) {
    const telemetry::Registry::CounterCell* cell = reg.find_counter(name);
    ASSERT_NE(cell, nullptr) << name << " is not registered";
    EXPECT_EQ(cell->value, sum) << name;
  }
}

/// Nonzero registry totals, so the parity above compares real counts.
void expect_counted(const telemetry::Registry& reg,
                    std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const telemetry::Registry::CounterCell* cell = reg.find_counter(name);
    ASSERT_NE(cell, nullptr) << name;
    EXPECT_GT(cell->value, 0u) << name;
  }
}

pbs::JobSpec job(int32_t priority, sim::Duration run_time) {
  pbs::JobSpec spec;
  spec.name = "parity";
  spec.priority = priority;
  spec.run_time = run_time;
  return spec;
}

TEST(CounterParity, ClusterWithHeadCrashAndRejoinUnderTraffic) {
  joshua::ClusterOptions options = joshuatest::fast_options(3, 2, 7);
  options.sched.policy = "preempt";
  joshua::Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_converged());
  joshua::Client& client = cluster.make_jclient();

  // Alternating priorities under the preempt policy: a high-priority
  // arrival preempts the running low-priority job through the ordered
  // stream. The traffic keeps flowing while head 1 is down and rejoins.
  int sent = 0;
  auto traffic = [&](sim::Duration span) {
    const sim::Time end = cluster.sim().now() + span;
    while (cluster.sim().now() < end) {
      client.jsub(job(sent % 2 == 0 ? 0 : 10, sim::msec(700)),
                  [](std::optional<pbs::SubmitResponse>) {});
      pbs::StatRequest all;
      client.jstat(all, [](std::optional<pbs::StatResponse>) {});
      ++sent;
      cluster.sim().run_for(sim::msec(250));
    }
  };
  traffic(sim::seconds(3));
  cluster.net().crash_host(cluster.head_hosts()[1]);
  traffic(sim::seconds(3));
  cluster.net().restart_host(cluster.head_hosts()[1]);
  cluster.joshua_server(1).start();
  traffic(sim::seconds(5));
  cluster.sim().run_for(sim::seconds(30));
  ASSERT_TRUE(cluster.run_until_converged());

  Tally t;
  for (size_t h = 0; h < cluster.head_count(); ++h)
    add_head(t, cluster.joshua_server(h), cluster.pbs_server(h),
             cluster.net().host(cluster.head_hosts()[h]).name());
  const telemetry::Registry& reg = cluster.sim().telemetry().metrics();
  expect_parity(reg, t);
  expect_counted(reg, {"gcs.data_sent", "gcs.cuts_received",
                       "gcs.views_installed", "joshua.replies_relayed",
                       "joshua.mutex_requests", "joshua.mutex_grants",
                       "joshua.state_transfers_served",
                       "joshua.replays_applied", "pbs.sched.preemptions"});
}

TEST(CounterParity, TwoShardFederation) {
  fed::FederationOptions options;
  options.shard_count = 2;
  options.heads_per_shard = 2;
  options.computes_per_shard = 1;
  options.cal = sim::fast_calibration();
  options.jstat_local = true;
  options.queue_globs = {{"batch*"}, {"*"}};
  fed::Federation f(std::move(options));
  f.start();
  ASSERT_TRUE(f.run_until_converged());
  fed::Router& router = f.make_router();

  for (const char* queue : {"batch", "debug", "batch2", "gpu"}) {
    pbs::JobSpec spec = job(0, sim::seconds(300));
    spec.queue = queue;
    router.jsub(spec, [&](std::optional<pbs::SubmitResponse> r) {
      if (r && r->status == pbs::Status::kOk) {
        pbs::StatRequest one;
        one.job_id = r->job_id;
        router.jstat(one, [](std::optional<pbs::StatResponse>) {});
      }
    });
    f.sim().run_for(sim::msec(500));
  }
  router.jstat(pbs::StatRequest{}, [](std::optional<pbs::StatResponse>) {});
  router.jdel(f.shard_map().first_id(2) + 1,
              [](std::optional<pbs::SimpleResponse>) {});
  f.sim().run_for(sim::seconds(5));
  router.jdel_all([](std::optional<uint64_t>) {});
  f.sim().run_for(sim::seconds(10));

  Tally t;
  for (size_t h = 0; h < f.head_count(); ++h)
    add_head(t, f.joshua_server(h), f.pbs_server(h),
             f.net().host(f.head_hosts()[h]).name());
  add_router(t, router);
  const telemetry::Registry& reg = f.sim().telemetry().metrics();
  expect_parity(reg, t);
  expect_counted(reg, {"gcs.delivered", "joshua.commands_executed",
                       "pbs.jstat_local", "fed.routed", "fed.fanouts",
                       "fed.fanout_reads", "fed.rejects", "fed.mass_deleted"});
}

}  // namespace
