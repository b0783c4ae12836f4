#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace perfbench {

int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double cpu_now_s() { return static_cast<double>(cpu_now_ns()) / 1e9; }

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Clients are pooled per rotation of the head list: user u always starts
/// at the head its rotation puts first, and an idle client keeps the head it
/// last failed over to, like a user's shell session would.
template <typename C>
class PooledFront final : public Front {
 public:
  using Factory = std::function<std::unique_ptr<C>(uint32_t rotation,
                                                   sim::Port port)>;
  PooledFront(uint32_t rotations, uint32_t ports_per_client,
              uint32_t first_port, Factory make)
      : free_(rotations),
        ports_per_client_(ports_per_client),
        next_port_(first_port),
        make_(std::move(make)) {}

  void jsub(uint32_t user, pbs::JobSpec spec, SubmitDone done) override {
    uint32_t rot = rotation(user);
    C* c = take(rot);
    c->jsub(std::move(spec),
            [this, rot, c, done = std::move(done)](
                std::optional<pbs::SubmitResponse> r) {
              free_[rot].push_back(c);
              done(std::move(r));
            });
  }
  void jstat(uint32_t user, pbs::StatRequest req, StatDone done) override {
    uint32_t rot = rotation(user);
    C* c = take(rot);
    c->jstat(req, [this, rot, c, done = std::move(done)](
                      std::optional<pbs::StatResponse> r) {
      free_[rot].push_back(c);
      done(std::move(r));
    });
  }
  void jdel(uint32_t user, pbs::JobId id, SimpleDone done) override {
    uint32_t rot = rotation(user);
    C* c = take(rot);
    c->jdel(id, [this, rot, c, done = std::move(done)](
                    std::optional<pbs::SimpleResponse> r) {
      free_[rot].push_back(c);
      done(std::move(r));
    });
  }
  uint64_t failovers() const override {
    uint64_t total = 0;
    for (const auto& c : all_) total += c->failovers();
    return total;
  }

 private:
  uint32_t rotation(uint32_t user) const {
    return user % static_cast<uint32_t>(free_.size());
  }
  C* take(uint32_t rot) {
    std::vector<C*>& idle = free_[rot];
    if (!idle.empty()) {
      C* c = idle.back();
      idle.pop_back();
      return c;
    }
    if (next_port_ + ports_per_client_ > 65535)
      throw std::runtime_error("perfbench: client ports exhausted");
    all_.push_back(make_(rot, static_cast<sim::Port>(next_port_)));
    next_port_ += ports_per_client_;
    return all_.back().get();
  }

  std::vector<std::vector<C*>> free_;
  std::vector<std::unique_ptr<C>> all_;
  uint32_t ports_per_client_;
  uint32_t next_port_;
  Factory make_;
};

template <typename T>
std::vector<T> rotated(const std::vector<T>& v, size_t by) {
  std::vector<T> out;
  for (size_t j = 0; j < v.size(); ++j) out.push_back(v[(by + j) % v.size()]);
  return out;
}

}  // namespace

// -- Testbed ------------------------------------------------------------------

Testbed::Testbed(const WorkloadSpec& w, uint64_t seed, SetupTimes& times)
    : w_(w) {
  pbs::SchedulerConfig sched;
  sched.policy = w.sched_policy;
  sched.selector = w.node_selector;
  sched.exclusive_cluster = w.exclusive_cluster;

  // Set-up is timed in process CPU seconds: the benchmark is one thread
  // that never waits, and CPU time does not count other tenants' slices.
  double t0 = cpu_now_s();
  if (!w.federated) {
    joshua::ClusterOptions o;
    o.head_count = w.heads_per_shard;
    o.compute_count = w.computes_per_shard;
    o.cal = w.cal;
    o.auto_rejoin = true;
    o.sched = sched;
    o.seed = seed;
    o.gcs_heartbeat = w.gcs_heartbeat;
    o.gcs_suspect = w.gcs_suspect;
    o.gcs_flush = w.gcs_flush;
    o.ordering = w.ordering;
    o.order_batch = w.order_batch;
    o.order_window = w.order_window;
    cluster_ = std::make_unique<joshua::Cluster>(std::move(o));
  } else {
    fed::FederationOptions o;
    o.shard_count = w.shards;
    o.heads_per_shard = w.heads_per_shard;
    o.computes_per_shard = w.computes_per_shard;
    o.cal = w.cal;
    o.auto_rejoin = true;
    o.jstat_local = w.jstat_local;
    o.pbs_persist = w.persist;
    o.sched = sched;
    o.seed = seed;
    o.gcs_heartbeat = w.gcs_heartbeat;
    o.gcs_suspect = w.gcs_suspect;
    o.gcs_flush = w.gcs_flush;
    o.gcs_hb_proc = w.gcs_hb_proc;
    o.gcs_ctrl_proc = w.gcs_ctrl_proc;
    o.ordering = w.ordering;
    o.order_batch = w.order_batch;
    o.order_window = w.order_window;
    fed_ = std::make_unique<fed::Federation>(std::move(o));
  }
  double t1 = cpu_now_s();
  times.build_s = t1 - t0;

  bool ok = false;
  if (cluster_) {
    cluster_->start();
    ok = cluster_->run_until_converged(sim::minutes(10));
  } else {
    fed_->start();
    ok = fed_->run_until_converged(sim::minutes(10));
  }
  if (!ok) throw std::runtime_error("perfbench: testbed did not converge");
  double t2 = cpu_now_s();
  times.converge_s = t2 - t1;

  preload();
  times.preload_s = cpu_now_s() - t2;
  front_ = make_front(30000);
}

/// The deep queue goes in through the ordered path, as job arrays submitted
/// to each shard, so every replica and every replay-transfer joiner holds it.
void Testbed::preload() {
  if (w_.preload_arrays_per_shard == 0) return;
  if (!fed_) throw std::runtime_error("perfbench: preload needs a federation");
  fed::Router& router = fed_->make_router();
  size_t pending = 0;
  bool failed = false;
  for (uint32_t s = 0; s < fed_->shard_count(); ++s)
    for (uint32_t k = 0; k < w_.preload_arrays_per_shard; ++k) {
      pbs::JobSpec spec;
      spec.name = "backlog";
      spec.run_time = sim::hours(8);
      spec.array_count = kPreloadArraySize;
      ++pending;
      router.client(s).jsub(
          std::move(spec), [&](std::optional<pbs::SubmitResponse> r) {
            --pending;
            if (r && r->status == pbs::Status::kOk)
              preloaded_.emplace_back(r->job_id, r->count);
            else
              failed = true;
          });
    }
  sim::Time limit{sim().now().us + sim::minutes(10).us};
  while (pending > 0 && sim().now() < limit)
    sim().run_until(sim::Time{sim().now().us + 100000});
  if (pending > 0 || failed)
    throw std::runtime_error("perfbench: preload submits failed");
  std::sort(preloaded_.begin(), preloaded_.end());
}

uint32_t Testbed::rotations() const {
  return static_cast<uint32_t>(w_.heads_per_shard);
}

Testbed::~Testbed() = default;

std::unique_ptr<Front> Testbed::make_front(uint32_t first_port) {
  if (cluster_) {
    std::vector<sim::Endpoint> heads;
    for (size_t i = 0; i < head_count(); ++i)
      heads.push_back(cluster_->joshua_endpoint(i));
    joshua::Cluster* c = cluster_.get();
    return std::make_unique<PooledFront<joshua::Client>>(
        static_cast<uint32_t>(heads.size()), 1, first_port,
        [c, heads](uint32_t rot, sim::Port port) {
          return std::make_unique<joshua::Client>(
              c->net(), c->login_host(), port,
              joshua::joshua_client_config_from(c->options().cal,
                                                rotated(heads, rot)));
        });
  }
  fed::Federation* f = fed_.get();
  size_t hps = static_cast<size_t>(w_.heads_per_shard);
  std::vector<std::vector<sim::Endpoint>> shard_heads(f->shard_count());
  for (uint32_t s = 0; s < f->shard_count(); ++s)
    for (size_t i = 0; i < hps; ++i)
      shard_heads[s].push_back(
          {f->head_hosts()[s * hps + i], joshua::Ports::kJoshua});
  return std::make_unique<PooledFront<fed::Router>>(
      static_cast<uint32_t>(hps), f->shard_count(), first_port,
      [f, shard_heads](uint32_t rot, sim::Port port) {
        std::vector<std::vector<sim::Endpoint>> lists;
        for (const auto& heads : shard_heads)
          lists.push_back(rotated(heads, rot));
        return std::make_unique<fed::Router>(f->net(), f->login_host(), port,
                                             f->shard_map(), lists,
                                             f->options().cal);
      });
}

sim::Simulation& Testbed::sim() {
  return cluster_ ? cluster_->sim() : fed_->sim();
}
sim::Network& Testbed::net() {
  return cluster_ ? cluster_->net() : fed_->net();
}
sim::FailureInjector& Testbed::faults() {
  return cluster_ ? cluster_->faults() : fed_->faults();
}
size_t Testbed::head_count() const {
  return cluster_ ? cluster_->head_count() : fed_->head_count();
}
size_t Testbed::compute_count() const {
  return cluster_ ? cluster_->compute_count() : fed_->compute_count();
}
sim::HostId Testbed::head_host(size_t i) const {
  return cluster_ ? cluster_->head_hosts().at(i) : fed_->head_hosts().at(i);
}
joshua::Server& Testbed::jserver(size_t i) {
  return cluster_ ? cluster_->joshua_server(i) : fed_->joshua_server(i);
}
pbs::Server& Testbed::pserver(size_t i) {
  return cluster_ ? cluster_->pbs_server(i) : fed_->pbs_server(i);
}
pbs::Mom& Testbed::mom(size_t i) {
  return cluster_ ? cluster_->mom(i) : fed_->mom(i);
}
uint32_t Testbed::group_of(size_t head) const {
  return cluster_ ? 0 : fed_->shard_of_head(head);
}
uint32_t Testbed::groups() const {
  return cluster_ ? 1 : fed_->shard_count();
}
bool Testbed::serving(size_t head) {
  if (!net().host(head_host(head)).up()) return false;
  joshua::Server& s = jserver(head);
  return s.in_service() && !s.replaying();
}
std::optional<uint32_t> Testbed::owner_of(pbs::JobId id) const {
  if (cluster_) return 0u;
  return fed_->shard_map().owner_of(id);
}

// -- Snapshot -----------------------------------------------------------------

Snapshot Snapshot::take(const telemetry::Registry& m) {
  Snapshot s;
  for (const auto& c : m.counters()) s.counters[c.name] = c.value;
  for (const auto& h : m.histograms()) s.histograms[h.name] = h.data;
  return s;
}

uint64_t Snapshot::delta(const Snapshot& before, const std::string& name) const {
  auto now = counters.find(name);
  if (now == counters.end()) return 0;
  auto was = before.counters.find(name);
  return now->second - (was == before.counters.end() ? 0 : was->second);
}

Snapshot Snapshot::diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [name, v] : after.counters)
    d.counters[name] = after.delta(before, name);
  for (const auto& [name, h] : after.histograms)
    d.histograms[name] = after.hist_delta(before, name);
  return d;
}

void Snapshot::add(const Snapshot& d) {
  for (const auto& [name, v] : d.counters) counters[name] += v;
  for (const auto& [name, h] : d.histograms) {
    telemetry::HistogramData& acc = histograms[name];
    if (h.count == 0) continue;
    acc.min = acc.count == 0 ? h.min : std::min(acc.min, h.min);
    acc.max = acc.count == 0 ? h.max : std::max(acc.max, h.max);
    for (size_t i = 0; i < acc.buckets.size(); ++i) acc.buckets[i] += h.buckets[i];
    acc.count += h.count;
    acc.sum += h.sum;
  }
}

telemetry::HistogramData Snapshot::hist_delta(const Snapshot& before,
                                              const std::string& name) const {
  telemetry::HistogramData d;
  auto now = histograms.find(name);
  if (now == histograms.end()) return d;
  d = now->second;
  auto was = before.histograms.find(name);
  if (was == before.histograms.end()) return d;
  for (size_t i = 0; i < d.buckets.size(); ++i)
    d.buckets[i] -= was->second.buckets[i];
  d.count -= was->second.count;
  d.sum -= was->second.sum;
  return d;
}

// -- OpenLoop -------------------------------------------------------------------

namespace {
constexpr int64_t kSliceUs = 100000;  ///< run_until slice: 100 ms simulated
const char* const kSampledGauges[] = {"gcs.pipeline_depth",
                                      "pbs.sched.utilization_pct"};
}  // namespace

OpenLoop::OpenLoop(Testbed& tb, Front& front, const WorkloadSpec& w, bool traced)
    : tb_(tb), front_(front), w_(w), traced_(traced) {
  telemetry::Registry& m = tb_.sim().telemetry().metrics();
  frames_ = m.counter("net.frames_sent");
  delivered_ = m.counter("gcs.delivered");
}

void OpenLoop::add(const std::vector<Arrival>& arrivals, uint8_t phase,
                 int16_t step) {
  for (const Arrival& a : arrivals) queue_.push_back({a, phase, step});
  if (armed_ == sim::kInvalidEvent) arm();
}

void OpenLoop::cancel_pending() {
  queue_.resize(next_);
  if (armed_ != sim::kInvalidEvent) tb_.sim().cancel(armed_);
  armed_ = sim::kInvalidEvent;
}

void OpenLoop::arm() {
  armed_ = sim::kInvalidEvent;
  if (next_ >= queue_.size()) return;
  sim::Time at{std::max(queue_[next_].a.due_us, tb_.sim().now().us)};
  armed_ = tb_.sim().schedule_at(at, [this] { fire(); });
}

void OpenLoop::fire() {
  const int64_t now = tb_.sim().now().us;
  while (next_ < queue_.size() && queue_[next_].a.due_us <= now) {
    Pending p = queue_[next_++];
    issue(p.a, p.phase, p.step);
  }
  arm();
}

pbs::JobId OpenLoop::pick_stat_target(uint64_t pick) {
  const auto& deep = tb_.preloaded();
  if (!deep.empty()) {
    // Deep-queue reads: any preloaded job of any shard.
    const auto& [first, count] = deep[pick % deep.size()];
    return first + (pick >> 16) % count;
  }
  if (accepted_.empty()) return pbs::kInvalidJob;
  return accepted_[pick % accepted_.size()];
}

void OpenLoop::issue(const Arrival& a, uint8_t phase, int16_t step) {
  const size_t idx = records_.size();
  Record r;
  r.due_us = a.due_us;
  r.issued_us = tb_.sim().now().us;
  r.kind = a.kind;
  r.phase = phase;
  r.step = step;
  r.user = a.user;

  pbs::JobId target = pbs::kInvalidJob;
  if (r.kind == Kind::kStat) {
    target = pick_stat_target(a.pick);
  } else if (r.kind == Kind::kDel && !deletable_.empty()) {
    // Short jobs finish in seconds: cancel the newest one, as the user who
    // just submitted it would. Jobs that never finish: any of them.
    size_t at = w_.job_run_time >= sim::hours(1)
                    ? a.pick % deletable_.size()
                    : deletable_.size() - 1;
    target = deletable_[at];
    deletable_[at] = deletable_.back();
    deletable_.pop_back();
  }
  // Nothing to read or cancel yet: the user submits instead.
  if ((r.kind == Kind::kStat || r.kind == Kind::kDel) &&
      target == pbs::kInvalidJob)
    r.kind = Kind::kSub;
  r.job = target;
  records_.push_back(r);
  ++outstanding_;

  switch (r.kind) {
    case Kind::kSub: {
      pbs::JobSpec spec;
      spec.name = "pb";
      spec.queue = w_.queues > 1 ? "q" + std::to_string(a.pick % w_.queues)
                                 : std::string("batch");
      spec.run_time = w_.job_run_time;
      spec.walltime = w_.job_run_time + sim::hours(1);
      front_.jsub(a.user, std::move(spec),
                  [this, idx](std::optional<pbs::SubmitResponse> resp) {
                    bool ok = resp && resp->status == pbs::Status::kOk &&
                              resp->job_id != pbs::kInvalidJob;
                    pbs::JobId id = ok ? resp->job_id : pbs::kInvalidJob;
                    if (ok) {
                      accepted_.push_back(id);
                      deletable_.push_back(id);
                    }
                    finish(idx, ok, id);
                  });
      break;
    }
    case Kind::kStat: {
      pbs::StatRequest req;
      req.job_id = target;
      front_.jstat(a.user, req,
                   [this, idx, target](std::optional<pbs::StatResponse> resp) {
                     bool ok = resp && resp->status == pbs::Status::kOk &&
                               resp->jobs.size() == 1 &&
                               resp->jobs[0].id == target;
                     // A replay-transfer joiner holds no completed history:
                     // kUnknownJob is a correct answer for a job that had
                     // ended by then, which check_outputs verifies for
                     // every such answer.
                     if (resp && resp->status == pbs::Status::kUnknownJob) {
                       stat_unknown_.emplace(target, tb_.sim().now().us);
                       ok = true;
                     }
                     finish(idx, ok, target);
                   });
      break;
    }
    case Kind::kStatAll: {
      pbs::StatRequest req;
      req.job_id = pbs::kInvalidJob;
      front_.jstat(a.user, req,
                   [this, idx](std::optional<pbs::StatResponse> resp) {
                     bool ok = resp && resp->status == pbs::Status::kOk &&
                               !resp->jobs.empty();
                     finish(idx, ok, pbs::kInvalidJob);
                   });
      break;
    }
    case Kind::kDel: {
      front_.jdel(a.user, target,
                  [this, idx, target](std::optional<pbs::SimpleResponse> resp) {
                    // kInvalidState: the job finished before the delete
                    // arrived; check_outputs verifies that it really did.
                    bool ok = resp && (resp->status == pbs::Status::kOk ||
                                       resp->status ==
                                           pbs::Status::kInvalidState);
                    if (resp) deletes_[target] = resp->status;
                    finish(idx, ok, target);
                  });
      break;
    }
  }
}

void OpenLoop::finish(size_t idx, bool ok, pbs::JobId job) {
  Record& r = records_[idx];
  r.done_us = tb_.sim().now().us;
  r.ok = ok;
  r.job = job;
  --outstanding_;
}

void OpenLoop::run_to(sim::Time t) {
  sim::Simulation& s = tb_.sim();
  const telemetry::Registry& m = s.telemetry().metrics();
  while (s.now() < t) {
    sim::Time t1{std::min(t.us, s.now().us + kSliceUs)};
    Slice sl;
    sl.t0_us = s.now().us;
    sl.phase = phase_;
    const uint64_t ev0 = s.events_executed();
    const uint64_t fr0 = frames_.value();
    const uint64_t dl0 = delivered_.value();
    const int64_t c0 = cpu_now_ns();
    s.run_until(t1);
    sl.cpu_ns = cpu_now_ns() - c0;
    sl.t1_us = s.now().us;
    sl.events = s.events_executed() - ev0;
    cpu_ns_[phase_] += sl.cpu_ns;
    events_[phase_] += sl.events;
    if (phase_ == kSteady || phase_ == kFault || phase_ == kRamp) {
      const double dt = static_cast<double>(sl.t1_us - sl.t0_us);
      for (const auto& g : m.gauges())
        for (const char* name : kSampledGauges)
          if (g.name == name) {
            auto& acc = gauge_sums_[g.name];
            acc.first += static_cast<double>(g.value) * dt;
            acc.second += dt;
          }
    }
    if (traced_) {
      sl.frames = frames_.value() - fr0;
      sl.delivered = delivered_.value() - dl0;
      slices_.push_back(sl);
    }
  }
}

std::optional<sim::Time> OpenLoop::run_polling(
    sim::Time limit, const std::function<bool()>& pred) {
  sim::Simulation& s = tb_.sim();
  while (s.now() < limit) {
    if (pred()) return s.now();
    run_to(sim::Time{std::min(limit.us, s.now().us + 100)});
  }
  if (pred()) return s.now();
  return std::nullopt;
}

double OpenLoop::gauge_mean(const std::string& name) const {
  auto it = gauge_sums_.find(name);
  if (it == gauge_sums_.end() || it->second.second <= 0) return 0;
  return it->second.first / it->second.second;
}

// -- checks -------------------------------------------------------------------

namespace {

using Row = std::tuple<pbs::JobId, pbs::JobState, bool>;

/// Live (non-terminal) rows: a replay-transfer joiner legitimately lacks the
/// group's completed history, so equality is over the live jobs.
void live_rows(pbs::Server& server, std::vector<Row>& out) {
  out.clear();
  for (const auto& [id, job] : server.jobs())
    if (!job.terminal()) out.emplace_back(id, job.state, job.cancelled);
}

/// The job as the first serving head of its group that knows it holds it.
std::optional<pbs::Job> find_in_group(Testbed& tb, pbs::JobId id) {
  std::optional<uint32_t> g = tb.owner_of(id);
  if (!g) return std::nullopt;
  for (size_t i = 0; i < tb.head_count(); ++i) {
    if (tb.group_of(i) != *g || !tb.serving(i)) continue;
    if (auto job = tb.pserver(i).find_job(id)) return job;
  }
  return std::nullopt;
}

}  // namespace

bool tables_settled(Testbed& tb) {
  std::vector<int> ref(tb.groups(), -1);
  std::vector<Row> want, got;
  for (size_t i = 0; i < tb.head_count(); ++i) {
    if (!tb.serving(i)) return false;
    uint32_t g = tb.group_of(i);
    if (ref[g] < 0) {
      ref[g] = static_cast<int>(i);
      continue;
    }
    live_rows(tb.pserver(static_cast<size_t>(ref[g])), want);
    live_rows(tb.pserver(i), got);
    if (got != want) return false;
  }
  return true;
}

std::vector<std::string> check_outputs(Testbed& tb, const OpenLoop& d) {
  std::vector<std::string> v;

  // 1. The heads of each group hold equal live job tables after settling.
  std::vector<int> ref(tb.groups(), -1);
  std::vector<Row> want, got;
  for (size_t i = 0; i < tb.head_count(); ++i) {
    if (!tb.serving(i)) {
      v.push_back("tables_equal: head " + std::to_string(i) +
                  " not serving after settle");
      continue;
    }
    uint32_t g = tb.group_of(i);
    if (ref[g] < 0) {
      ref[g] = static_cast<int>(i);
      continue;
    }
    live_rows(tb.pserver(static_cast<size_t>(ref[g])), want);
    live_rows(tb.pserver(i), got);
    if (got != want) {
      auto [x, y] = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
      const Row& diff = x != got.end() ? *x : *y;
      v.push_back("tables_equal: head " + std::to_string(i) + " holds " +
                  std::to_string(got.size()) + " live jobs, head " +
                  std::to_string(ref[g]) + " holds " +
                  std::to_string(want.size()) + "; first difference job " +
                  std::to_string(std::get<0>(diff)) + " state " +
                  std::string(pbs::to_string(std::get<1>(diff))));
    }
  }

  // 2. No accepted job is lost: some serving head of its group holds it.
  // 3. Each job launched exactly once: no more real runs than one plus the
  // quiet kills that ended earlier runs; a job that completed on its own
  // ran. 4. jdel and jstat answers agree with the final state of the job.
  std::map<pbs::JobId, uint32_t> runs, kills;
  for (size_t m = 0; m < tb.compute_count(); ++m) {
    for (const auto& [id, n] : tb.mom(m).real_run_log()) runs[id] += n;
    for (const auto& [id, n] : tb.mom(m).quiet_kill_log()) kills[id] += n;
  }
  for (const auto& [id, n] : runs)
    if (n > 1 + kills[id])
      v.push_back("launched_once: job " + std::to_string(id) + " ran " +
                  std::to_string(n) + " times");
  for (pbs::JobId id : d.accepted()) {
    std::optional<pbs::Job> job = find_in_group(tb, id);
    if (!job) {
      v.push_back("no_job_lost: job " + std::to_string(id) +
                  " was accepted then lost");
      continue;
    }
    if (job->terminal() && !job->cancelled && runs[id] == 0)
      v.push_back("launched_once: job " + std::to_string(id) +
                  " completed unlaunched");
    auto del = d.deletes().find(id);
    if (del == d.deletes().end()) continue;
    bool fine = del->second == pbs::Status::kOk
                    ? job->cancelled
                    : del->second == pbs::Status::kInvalidState &&
                          job->terminal() && !job->cancelled;
    if (!fine)
      v.push_back("jdel_consistent: job " + std::to_string(id) +
                  " answered " + std::string(pbs::to_string(del->second)));
  }

  // 4b. Every "unknown" jstat answer, for accepted and preloaded jobs
  // alike, was about a job that had ended by the time of the answer.
  const std::set<pbs::JobId> accepted(d.accepted().begin(),
                                      d.accepted().end());
  for (const auto& [id, at] : d.stat_unknown()) {
    std::optional<pbs::Job> job = find_in_group(tb, id);
    if (!job) {
      // An accepted job that is gone is already a no_job_lost violation.
      if (accepted.count(id) == 0)
        v.push_back("jstat_consistent: job " + std::to_string(id) +
                    " answered unknown and held by no serving head");
      continue;
    }
    if (!job->terminal())
      v.push_back("jstat_consistent: job " + std::to_string(id) +
                  " answered unknown at " + std::to_string(at) +
                  " us but is " + std::string(pbs::to_string(job->state)));
    else if (job->end_time.us > at)
      v.push_back("jstat_consistent: job " + std::to_string(id) +
                  " answered unknown at " + std::to_string(at) +
                  " us but ended at " + std::to_string(job->end_time.us) +
                  " us");
  }

  // 5. Replay transfer reproduced the group's state at every joiner.
  const telemetry::Registry& m = tb.sim().telemetry().metrics();
  for (const auto& c : m.counters())
    if (c.name.rfind("joshua.replay_divergence", 0) == 0 && c.value != 0)
      v.push_back("replay_divergence: " + c.name + " = " +
                  std::to_string(c.value));
  return v;
}

uint64_t behaviour_digest(Testbed& tb, const OpenLoop& d) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Record& r : d.records()) {
    mix(static_cast<uint64_t>(r.due_us));
    mix(static_cast<uint64_t>(r.done_us));
    mix(r.job);
    mix(static_cast<uint64_t>(r.kind) | (static_cast<uint64_t>(r.ok) << 8));
  }
  for (size_t i = 0; i < tb.head_count(); ++i)
    for (const auto& [id, job] : tb.pserver(i).jobs()) {
      mix(id);
      mix(static_cast<uint64_t>(job.state) | (job.cancelled ? 0x100u : 0u));
    }
  mix(tb.sim().events_executed());
  return h;
}

}  // namespace perfbench
