// Built-in SchedPolicy plugins + the policy registry.
//
// "fifo" and "backfill" reproduce the historical monolithic scheduler's
// decisions exactly (the paper's determinism baseline and the EASY
// extension it hints at). "priority" orders by effective priority with
// optional aging; "preempt" adds priority preemption, emitted as ordered
// requests so every head requeues the victims at the same point of the
// command stream.
//
// Every policy is a pure function of the SchedContext -- that is the
// cross-head determinism contract the conformance suite enforces.
#include <algorithm>
#include <memory>
#include <utility>

#include "pbs/scheduler.h"

namespace pbs {
namespace {

/// Queued jobs in FIFO order (queue_rank, then id for total determinism).
std::vector<const Job*> eligible_fifo(const std::map<JobId, Job>& jobs) {
  std::vector<const Job*> out;
  for (const auto& [id, job] : jobs) {
    (void)id;
    if (job.state == JobState::kQueued) out.push_back(&job);
  }
  std::sort(out.begin(), out.end(), [](const Job* a, const Job* b) {
    if (a->queue_rank != b->queue_rank) return a->queue_rank < b->queue_rank;
    return a->id < b->id;
  });
  return out;
}

/// Submit-time priority plus aging credit: +1 per priority_aging waited.
/// Integer arithmetic on microsecond counts keeps it bit-identical across
/// heads regardless of when each one runs its cycle relative to `now`.
int64_t effective_priority(const Job& job, const SchedulerConfig& config,
                           sim::Time now) {
  int64_t p = job.spec->priority;
  if (config.priority_aging.us > 0 && now.us > job.submit_time.us)
    p += (now.us - job.submit_time.us) / config.priority_aging.us;
  return p;
}

/// Queued jobs by descending effective priority; queue_rank then id break
/// ties deterministically (the satellite-1 contract).
std::vector<const Job*> eligible_priority(const SchedContext& ctx) {
  std::vector<const Job*> out;
  for (const auto& [id, job] : ctx.jobs) {
    (void)id;
    if (job.state == JobState::kQueued) out.push_back(&job);
  }
  std::sort(out.begin(), out.end(), [&ctx](const Job* a, const Job* b) {
    int64_t pa = effective_priority(*a, ctx.config, ctx.now);
    int64_t pb = effective_priority(*b, ctx.config, ctx.now);
    if (pa != pb) return pa > pb;
    if (a->queue_rank != b->queue_rank) return a->queue_rank < b->queue_rank;
    return a->id < b->id;
  });
  return out;
}

size_t count_up(const std::vector<NodeState>& nodes) {
  size_t n = 0;
  for (const NodeState& node : nodes)
    if (node.up) ++n;
  return n;
}

bool pool_exhausted(const FreePool& pool) {
  for (const FreeSlot& s : pool)
    if (s.free > 0) return false;
  return true;
}

/// The paper's exclusive-cluster admission: the head job launches iff every
/// up node is idle, and it gets all of them (one replica set -- exclusive
/// access leaves no disjoint node set for a second replica).
void exclusive_launch(const SchedContext& ctx,
                      const std::vector<const Job*>& queue,
                      SchedDecisions& out) {
  std::vector<sim::HostId> all;
  for (const NodeState& n : ctx.nodes) {
    if (!n.up) continue;
    if (!n.idle()) return;
    all.push_back(n.host);
  }
  if (all.empty()) return;
  LaunchDecision d{queue.front()->id, std::move(all), {}};
  d.replica_sets.push_back(d.nodes);
  out.launches.push_back(std::move(d));
}

/// Launch from the head of `queue` while the selector finds room; returns
/// the index of the first job that did not fit (the blocked head).
size_t run_strict(const SchedContext& ctx,
                  const std::vector<const Job*>& queue, FreePool& pool,
                  SchedDecisions& out) {
  size_t next = 0;
  while (next < queue.size()) {
    auto sets = ctx.selector.select(pool, *queue[next]->spec, true);
    if (sets.empty()) break;
    LaunchDecision d;
    d.job = queue[next]->id;
    d.replica_sets = std::move(sets);
    d.nodes = d.replica_sets.front();
    out.launches.push_back(std::move(d));
    ++next;
  }
  return next;
}

/// EASY backfill behind the blocked job `queue[next]`: compute its shadow
/// time from walltime estimates and admit later jobs iff they fit in the
/// hole without delaying it. Backfilled jobs run unreplicated -- extra
/// replica sets would eat into the shadow-time budget.
void easy_backfill(const SchedContext& ctx,
                   const std::vector<const Job*>& queue, size_t next,
                   FreePool& pool, SchedDecisions& out) {
  const Job* blocked = queue[next];
  std::vector<std::pair<sim::Time, uint32_t>> releases;  // (when, node count)
  for (const auto& [id, job] : ctx.jobs) {
    (void)id;
    if (job.state != JobState::kRunning) continue;
    sim::Time release = job.start_time + job.spec->walltime;
    if (release < ctx.now) release = ctx.now;  // overran its estimate
    releases.emplace_back(release, job.spec->nodes);
  }
  std::sort(releases.begin(), releases.end());
  size_t avail = eligible_hosts(pool, *blocked->spec);
  sim::Time shadow = sim::kTimeInfinity;
  for (const auto& [when, count] : releases) {
    avail += count;
    if (avail >= blocked->spec->nodes) {
      shadow = when;
      break;
    }
  }
  // Nodes free at the shadow instant that the blocked job will NOT need.
  size_t spare_at_shadow =
      avail >= blocked->spec->nodes ? avail - blocked->spec->nodes : 0;

  for (size_t i = next + 1; i < queue.size() && !pool_exhausted(pool); ++i) {
    const Job* candidate = queue[i];
    if (candidate->spec->nodes > eligible_hosts(pool, *candidate->spec))
      continue;
    bool fits_before_shadow = ctx.now + candidate->spec->walltime <= shadow;
    bool fits_spare = candidate->spec->nodes <= spare_at_shadow;
    if (!fits_before_shadow && !fits_spare) continue;
    auto sets = ctx.selector.select(pool, *candidate->spec, false);
    if (sets.empty()) continue;
    LaunchDecision d;
    d.job = candidate->id;
    d.replica_sets = std::move(sets);
    d.nodes = d.replica_sets.front();
    if (!fits_before_shadow && fits_spare) {
      // Runs past the shadow but on nodes the blocked job will not use.
      spare_at_shadow -= candidate->spec->nodes;
    }
    out.launches.push_back(std::move(d));
    ++out.backfilled;
  }
}

class FifoPolicy : public SchedPolicy {
 public:
  std::string_view name() const override { return "fifo"; }

  SchedDecisions cycle(const SchedContext& ctx) const override {
    SchedDecisions out;
    // With no free slot nothing can launch; skip the O(queued log queued)
    // projection entirely (a deep backlog would pay it every cycle).
    FreePool pool = make_free_pool(ctx.nodes);
    if (pool.empty()) return out;
    std::vector<const Job*> queue = eligible_fifo(ctx.jobs);
    if (queue.empty()) return out;
    if (ctx.config.exclusive_cluster) {
      if (pool.size() != count_up(ctx.nodes)) return out;
      exclusive_launch(ctx, queue, out);
      return out;
    }
    run_strict(ctx, queue, pool, out);
    return out;
  }
};

class BackfillPolicy : public SchedPolicy {
 public:
  std::string_view name() const override { return "backfill"; }

  SchedDecisions cycle(const SchedContext& ctx) const override {
    SchedDecisions out;
    FreePool pool = make_free_pool(ctx.nodes);
    if (pool.empty()) return out;
    std::vector<const Job*> queue = eligible_fifo(ctx.jobs);
    if (queue.empty()) return out;
    if (ctx.config.exclusive_cluster) {
      if (pool.size() != count_up(ctx.nodes)) return out;
      exclusive_launch(ctx, queue, out);
      return out;
    }
    size_t next = run_strict(ctx, queue, pool, out);
    if (next < queue.size()) easy_backfill(ctx, queue, next, pool, out);
    return out;
  }
};

class PriorityPolicy : public SchedPolicy {
 public:
  std::string_view name() const override { return "priority"; }

  SchedDecisions cycle(const SchedContext& ctx) const override {
    SchedDecisions out;
    FreePool pool = make_free_pool(ctx.nodes);
    if (pool.empty()) return out;
    std::vector<const Job*> queue = eligible_priority(ctx);
    if (queue.empty()) return out;
    if (ctx.config.exclusive_cluster) {
      if (pool.size() != count_up(ctx.nodes)) return out;
      exclusive_launch(ctx, queue, out);
      return out;
    }
    run_strict(ctx, queue, pool, out);
    return out;
  }
};

/// Running jobs with strictly lower effective priority than `floor`,
/// cheapest victims first: lowest priority, then youngest (highest
/// queue_rank, highest id) -- preempting recent work wastes the least.
std::vector<const Job*> preemption_candidates(const SchedContext& ctx,
                                              int64_t floor) {
  std::vector<const Job*> victims;
  for (const auto& [id, job] : ctx.jobs) {
    (void)id;
    if (job.state != JobState::kRunning) continue;
    if (effective_priority(job, ctx.config, ctx.now) < floor)
      victims.push_back(&job);
  }
  std::sort(victims.begin(), victims.end(),
            [&ctx](const Job* a, const Job* b) {
              int64_t pa = effective_priority(*a, ctx.config, ctx.now);
              int64_t pb = effective_priority(*b, ctx.config, ctx.now);
              if (pa != pb) return pa < pb;
              if (a->queue_rank != b->queue_rank)
                return a->queue_rank > b->queue_rank;
              return a->id > b->id;
            });
  return victims;
}

class PreemptPolicy : public SchedPolicy {
 public:
  std::string_view name() const override { return "preempt"; }

  SchedDecisions cycle(const SchedContext& ctx) const override {
    SchedDecisions out;
    std::vector<const Job*> queue = eligible_priority(ctx);
    if (queue.empty()) return out;

    if (ctx.config.exclusive_cluster) {
      exclusive_launch(ctx, queue, out);
      if (!out.launches.empty()) return out;
      // The whole cluster is the resource: the head preempts only if every
      // occupant is strictly lower priority (kExiting jobs are already on
      // their way out -- wait for them instead).
      int64_t head = effective_priority(*queue.front(), ctx.config, ctx.now);
      std::vector<const Job*> victims = preemption_candidates(ctx, head);
      size_t running = 0;
      for (const auto& [id, job] : ctx.jobs) {
        (void)id;
        if (job.active()) ++running;
      }
      if (running == 0 || victims.size() != running) return out;
      for (const Job* v : victims) out.preemptions.push_back(v->id);
      return out;
    }

    FreePool pool = make_free_pool(ctx.nodes);
    size_t next = run_strict(ctx, queue, pool, out);
    if (next >= queue.size()) return out;
    const Job* blocked = queue[next];
    if (blocked->spec->nodes == 0) return out;

    // Would requeuing lower-priority running jobs free enough hosts for the
    // blocked head? All-or-nothing: partial preemption wastes completed
    // work without unblocking anything. The launch itself happens on a
    // later cycle, once the ordered requeues have been applied.
    size_t have = eligible_hosts(pool, *blocked->spec);
    if (have >= blocked->spec->nodes) return out;  // selector constraint gap
    int64_t head = effective_priority(*blocked, ctx.config, ctx.now);
    std::vector<const Job*> victims = preemption_candidates(ctx, head);
    std::vector<JobId> chosen;
    for (const Job* v : victims) {
      size_t gain = 0;
      for (const NodeState& n : ctx.nodes) {
        if (!n.up || !n.has(v->id) || !n.satisfies(*blocked->spec)) continue;
        if (n.free_slots() > 0) continue;  // host already counted available
        ++gain;
      }
      if (gain == 0) continue;
      chosen.push_back(v->id);
      have += gain;
      if (have >= blocked->spec->nodes) break;
    }
    if (have >= blocked->spec->nodes) out.preemptions = std::move(chosen);
    return out;
  }
};

std::vector<std::unique_ptr<SchedPolicy>>& registry() {
  static std::vector<std::unique_ptr<SchedPolicy>> policies;
  return policies;
}

void ensure_builtins() {
  static bool done = false;
  if (done) return;
  done = true;
  registry().push_back(std::make_unique<FifoPolicy>());
  registry().push_back(std::make_unique<BackfillPolicy>());
  registry().push_back(std::make_unique<PriorityPolicy>());
  registry().push_back(std::make_unique<PreemptPolicy>());
}

}  // namespace

const SchedPolicy* find_sched_policy(std::string_view name) {
  ensure_builtins();
  for (const auto& p : registry()) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

void register_sched_policy(std::unique_ptr<SchedPolicy> policy) {
  ensure_builtins();
  registry().push_back(std::move(policy));
}

std::vector<std::string> sched_policy_names() {
  ensure_builtins();
  std::vector<std::string> names;
  for (const auto& p : registry()) names.emplace_back(p->name());
  return names;
}

}  // namespace pbs
