#include "workloads.h"

#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Traffic model. Every rate and mix below comes from one user model, the
// program's default PBS user profile (pbs::WorkloadProfile in
// src/pbs/workload.h), copied here so a change to the program cannot change
// the inputs: a user submits on average once every 20 s (mean_interarrival,
// the kSteady trace), reads 8 job states per submit (stats_per_submit, the
// kStatFlood trace) and cancels 0.4 of its submits (cancel_fraction, the
// kMassCancel trace).
constexpr double kUserSubmitsPerS = 1.0 / 20;
constexpr double kStatsPerSubmit = 8;
constexpr double kCancelsPerSubmit = 0.4;
constexpr Mix kUserMix{1, kStatsPerSubmit, 0, kCancelsPerSubmit};

/// The profile user without cancels. A jdel racing the job's launch or its
/// completion on the 2006 heads can leave the job EXITING forever at some
/// heads, or answer "invalid state" to the delete that cancelled it (both
/// defects of the program, seen on paper4 at seed 400061228); paper4
/// leaves jdel out until they are fixed.
constexpr Mix kUserMixNoCancel{1, kStatsPerSubmit, 0, 0};

/// Commands per second that `users` profile users send together.
constexpr double user_rate(double users) {
  return users * kUserSubmitsPerS * (1 + kStatsPerSubmit + kCancelsPerSubmit);
}

/// The paper's Fig. 11: the 4-head JOSHUA testbed enqueues 100 jobs in
/// 33.32 s, about 3.0 jsub/s with one user submitting back to back.
constexpr double kPaperFourHeadJsubPerS = 100 / 33.32;

/// The paper's testbed: 4 heads, 2 computes, the 2006 cost model on the
/// shared hub, all-ack ordering, persistence on, jmutex on every launch,
/// a crash of the clients' first head with restart and replay state
/// transfer (the only transfer mode the workloads use, and the testbeds'
/// default).
WorkloadSpec paper4() {
  WorkloadSpec w;
  w.name = "paper4";
  w.federated = false;
  w.heads_per_shard = 4;
  w.computes_per_shard = 2;
  w.cal = sim::paper_testbed();
  w.ordering = gcs::OrderingMode::kAllAck;
  w.exclusive_cluster = false;  // one node per job, two jobs at a time
  w.persist = true;
  // A 2006 head's CPU backlog under bursts of ordered commands outlasts the
  // 500 ms default suspect timeout and gets live heads excluded.
  w.gcs_suspect = sim::seconds(2);
  w.gcs_flush = sim::seconds(4);
  // The profile's shortest job (min_run): the two computes stay below
  // capacity (pbs.sched.utilization_pct reads about 80%).
  w.job_run_time = sim::seconds(30);
  // One profile user, as in the paper's measurements (Fig. 11 has one
  // submitting user), spread over 64 client identities so that every
  // rotation of the head list serves part of the stream.
  w.users = 64;
  const double rate = kUserSubmitsPerS * (1 + kStatsPerSubmit);
  w.warmup = {20, 0.5, Mix{1, 0, 0, 0}};
  w.legs = 40;
  w.steady = {4000, rate, kUserMixNoCancel};
  // The clients' first head crashes.
  w.fault = {0, 300, rate, kUserMixNoCancel};
  // Ramp steps at 1/16, 1/8, 3/16 and 1/4 of the Fig. 11 rate.
  w.ramp = {{kPaperFourHeadJsubPerS / 16, kPaperFourHeadJsubPerS / 8,
             kPaperFourHeadJsubPerS * 3 / 16, kPaperFourHeadJsubPerS / 4},
            300,
            kUserMixNoCancel};
  w.settle_s = 60;
  // Reference leg: one profile user's submits alone.
  w.ref_rate = kUserSubmitsPerS;
  w.ref_seconds = 1200;
  return w;
}

/// Modern heads: bench_ordering's per-packet costs on fast_calibration(),
/// plus 20 us of per-packet network jitter (fast_calibration() has none,
/// which would make every uncontended command take the same time).
void modern_heads(WorkloadSpec& w) {
  w.cal = sim::fast_calibration();
  w.cal.network.jitter = sim::usec(20);
  w.gcs_hb_proc = sim::usec(20);
  w.gcs_ctrl_proc = sim::usec(50);
}

/// One ordering group of 64 heads on the token ring: ordering and the
/// simulator's per-event cost do the work.
WorkloadSpec ring64() {
  WorkloadSpec w;
  w.name = "ring64";
  w.federated = true;
  w.shards = 1;
  w.heads_per_shard = 64;
  w.computes_per_shard = 2;
  modern_heads(w);
  // bench_federation's detector for large groups (1 s heartbeats, 10 s
  // suspect timeout). A heartbeat round holds every head's CPU for about
  // 5 ms; at 500 ms intervals that is 1% of the time, right at the p99 of
  // local reads, which then spread half their median from seed to seed.
  w.gcs_heartbeat = sim::seconds(1);
  w.gcs_suspect = sim::seconds(10);
  w.gcs_flush = sim::seconds(4);
  w.ordering = gcs::OrderingMode::kTokenRing;
  w.persist = false;
  // Reads come off the local replica while every jsub and jdel crosses the
  // ring: an ordered read costs a 64-head group as much CPU as a submit
  // (about 20 ms), and ordered reads would leave too few submits per run
  // to time.
  w.jstat_local = true;
  w.job_run_time = sim::hours(1);
  // 32 profile users per head, half the ramp's top step (4096 users),
  // which the ring serves within the limit. A busier ring gives more
  // submits per CPU second: 512 users for 30 s held about 780 submits,
  // and jsub_p50_ms spread 0.10 of its median over ten seeds; 2048 users
  // for 15 s hold twice as many for a sixth more CPU time.
  w.users = 2048;
  // bench_federation's 64 queue names (EXPERIMENTS.md, E12 leg A).
  w.queues = 64;
  w.warmup = {0.5, 100, Mix{1, 0, 0, 0}};
  w.steady = {15, user_rate(2048), kUserMix};
  w.ramp = {{user_rate(512), user_rate(1024), user_rate(2048), user_rate(4096)},
            300,
            kUserMix};
  w.settle_s = 2;
  w.ref_rate = 100;
  w.ref_seconds = 3;
  return w;
}

/// 4 shards x 4 heads over a deep queue (24576 queued jobs per shard, built
/// through ordered array submits), reads served off the local replica beside
/// ordered writes and whole-queue listings fanned out by the router.
WorkloadSpec fed_deep() {
  WorkloadSpec w;
  w.name = "fed_deep";
  w.federated = true;
  w.shards = 4;
  w.heads_per_shard = 4;
  w.computes_per_shard = 1;
  modern_heads(w);
  // A whole-queue listing holds the shared hub for most of a second; the
  // 500 ms default detector would suspect every head queued behind it.
  w.gcs_suspect = sim::seconds(5);
  w.gcs_flush = sim::seconds(10);
  w.ordering = gcs::OrderingMode::kAllAck;
  w.persist = false;
  w.jstat_local = true;
  w.preload_arrays_per_shard = 6;
  w.job_run_time = sim::hours(8);
  // 512 profile users send 240 commands/s, about three quarters of the
  // 310 commands/s bench_federation measured for 4 shards (E12 leg A).
  w.users = 512;
  w.queues = 64;
  w.warmup = {1, 100, Mix{1, 0, 0, 0}};
  w.steady = {60, user_rate(512), kUserMix};
  w.listings = 12;
  w.settle_s = 10;
  w.ref_rate = 100;
  w.ref_seconds = 10;
  return w;
}

}  // namespace

WorkloadSpec workload(const std::string& name) {
  if (name == "paper4") return paper4();
  if (name == "ring64") return ring64();
  if (name == "fed_deep") return fed_deep();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string resolved_options_json(const WorkloadSpec& w) {
  std::ostringstream o;
  o << "{\"workload\":\"" << w.name << "\",\"ordering\":\""
    << gcs::to_string(w.ordering) << "\",\"order_batch\":" << w.order_batch
    << ",\"order_window\":" << w.order_window << ",\"sched_policy\":\""
    << w.sched_policy << "\",\"node_selector\":\"" << w.node_selector
    << "\",\"exclusive_cluster\":" << (w.exclusive_cluster ? "true" : "false")
    << ",\"shards\":" << w.shards << ",\"heads_per_shard\":"
    << w.heads_per_shard << ",\"computes_per_shard\":"
    << w.computes_per_shard << ",\"persist\":" << (w.persist ? "true" : "false")
    << ",\"jstat_local\":" << (w.jstat_local ? "true" : "false")
    << ",\"preload_jobs_per_shard\":"
    << w.preload_arrays_per_shard * kPreloadArraySize << ",\"legs\":" << w.legs
    << ",\"latency_limit_ms\":" << kLatencyLimitMs << "}";
  return o.str();
}

}  // namespace perfbench
