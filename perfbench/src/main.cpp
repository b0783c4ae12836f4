// perfbench: the replicated job service's end-to-end benchmark.
//
//   perfbench --workload <paper4|ring64|fed_deep> --seed <n> --seconds <s>
//             --trace <0|1> [--out-dir <dir>]
//
// A pass runs the workload's legs (independent testbeds with derived
// seeds). Each leg builds its testbed, drives it with open-loop traffic
// (warm-up, steady phase, head-crash phase, closing rate ramp), drains,
// settles and checks the outputs. Passes repeat until --seconds of wall
// time are spent. Simulated-time metrics are identical in every pass of one
// seed (checked, and checked again against a rerun of the first leg up to
// its checkpoint); CPU-time metrics are medians over the passes.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes
// for half the budget, then one traced pass, and prints the traced pass's
// per-layer metrics plus the tracing overhead; it writes that pass's spans
// and the program's Chrome trace under --out-dir. The last stdout line is
// the result JSON.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/chrome_trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

using Metrics = std::map<std::string, double>;

/// Units of every metric the benchmark prints.
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u = {
      {"jsub_p50_ms", "ms"},
      {"jsub_p99_ms", "ms"},
      {"jstat_p50_ms", "ms"},
      {"jstat_p99_ms", "ms"},
      {"jstat_all_p50_ms", "ms"},
      {"fault.gap_ms", "ms"},
      {"fault.rejoin_s", "s"},
      {"cmds_per_cpu_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ramp.max_rate_cmds_per_s", "1/s"},
      {"failed_frac", "ratio"},
      {"sim.events_per_cmd", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.cpu_s", "s"},
      {"net.frames_per_cmd", "count"},
      {"net.bytes_per_cmd", "bytes"},
      {"net.frames_dropped", "count"},
      {"net.medium_wait_us.p99", "us"},
      {"gcs.order_ms.p50", "ms"},
      {"gcs.order_ms.p99", "ms"},
      {"gcs.ctrl_msgs_per_cmd", "count"},
      {"gcs.nacks_sent", "count"},
      {"gcs.retransmits_served", "count"},
      {"gcs.batch_size.mean", "count"},
      {"gcs.window_stalls", "count"},
      {"gcs.pipeline_depth.mean", "count"},
      {"gcs.token.rotations", "count"},
      {"gcs.token.hold_ms.mean", "ms"},
      {"gcs.views_installed", "count"},
      {"gcs.views_installed.steady", "count"},
      {"joshua.intercept_to_reply_ms.p50", "ms"},
      {"joshua.intercept_to_reply_ms.p99", "ms"},
      {"joshua.jmutex_wait_ms.p99", "ms"},
      {"joshua.mutex_grant_ratio", "ratio"},
      {"joshua.replays_applied", "count"},
      {"joshua.replay_divergence", "count"},
      {"joshua.jstat_local_ms.p99", "ms"},
      {"client.failovers", "count"},
      {"pbs.queue_wait_ms.p50", "ms"},
      {"pbs.sched_cycles", "count"},
      {"pbs.jobs_launched", "count"},
      {"pbs.jobs_completed", "count"},
      {"pbs.jobs_requeued", "count"},
      {"pbs.sched.utilization_pct", "%"},
      {"fed.routed", "count"},
      {"fed.fanouts", "count"},
      {"fed.fanout_reads", "count"},
      {"fed.shard_skew", "ratio"},
      {"setup.build_s", "s"},
      {"setup.converge_s", "s"},
      {"setup.preload_s", "s"},
      {"ref.one_head.jsub_p50_ms", "ms"},
      {"trace.cmds_per_cpu_s", "1/s"},
      {"trace.overhead_pct", "%"},
  };
  return u;
}

/// Linear-interpolated quantile of unsorted samples; NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of latencies in ms. Simulated time is whole microseconds, so
/// samples tie in 1 us bins and one order statistic would read the same on
/// many seeds; as for grouped data, the estimate interpolates within the
/// bin that holds the rank.
double latency_quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  constexpr double kBinMs = 0.001;
  const double rank = q * static_cast<double>(v.size());
  const size_t i = std::min(static_cast<size_t>(rank), v.size() - 1);
  const auto [lo, hi] = std::equal_range(v.begin(), v.end(), v[i]);
  const double first = static_cast<double>(lo - v.begin());
  const double count = static_cast<double>(hi - lo);
  return v[i] - kBinMs / 2 + kBinMs * (rank - first) / count;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

uint64_t stream_seed(uint64_t seed, const std::string& workload, int leg,
                     int phase, int step) {
  uint64_t h = 1469598103934665603ull;
  for (char c : workload) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  Rng r(h ^ (seed * 0x9e3779b97f4a7c15ull) ^
        (static_cast<uint64_t>(leg) << 56) ^
        (static_cast<uint64_t>(phase) << 48) ^ static_cast<uint64_t>(step + 1));
  return r.next();
}

sim::Time at_s(int64_t base_us, double s) {
  return sim::Time{base_us + static_cast<int64_t>(std::llround(s * 1e6))};
}

std::vector<double> latencies_ms(const OpenLoop& d, Kind kind, uint8_t phase) {
  std::vector<double> out;
  for (const Record& r : d.records())
    if (r.kind == kind && r.phase == phase && r.ok)
      out.push_back(static_cast<double>(r.done_us - r.due_us) / 1000.0);
  return out;
}

bool by_due(const Arrival& a, const Arrival& b) { return a.due_us < b.due_us; }

void drain(OpenLoop& d, sim::Simulation& s, double limit_s) {
  const sim::Time limit = at_s(s.now().us, limit_s);
  while (d.outstanding() > 0 && s.now() < limit)
    d.run_to(at_s(s.now().us, 0.1));
}

/// What one leg (one testbed) contributes to a pass.
struct Leg {
  std::vector<double> lat[kKinds];  ///< steady-phase latencies, ms
  std::vector<double> gaps_ms;
  std::vector<double> rejoin_s;
  double max_rate = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok = 0;
  uint64_t ordered = 0;
  std::map<uint32_t, double> per_group;
  int64_t cpu_ns = 0;
  uint64_t events = 0;
  uint64_t steady_ok = 0;
  int64_t steady_cpu_ns = 0;
  Snapshot delta;  ///< counters and histograms over the measured phases
  uint64_t views_steady = 0;
  double pipeline_mean = 0;
  double util_mean = 0;
  uint64_t failovers = 0;
  uint32_t groups = 1;
  SetupTimes setup;
  std::vector<std::string> violations;
  uint64_t checkpoint = 0;  ///< digest a tenth into the steady phase
  uint64_t digest = 0;
};

/// Share of the steady phase after which a leg takes its checkpoint digest.
constexpr double kCheckpointShare = 0.1;

void write_spans(const std::string& path, const OpenLoop& d) {
  std::ofstream out(path);
  for (size_t i = 0; i < d.records().size(); ++i) {
    const Record& r = d.records()[i];
    out << "{\"span\":\"cmd\",\"id\":" << i << ",\"kind\":\""
        << kind_name(r.kind) << "\",\"phase\":" << int(r.phase)
        << ",\"step\":" << r.step << ",\"user\":" << r.user
        << ",\"due_us\":" << r.due_us << ",\"issued_us\":" << r.issued_us
        << ",\"replied_us\":" << r.done_us << ",\"job\":" << r.job
        << ",\"ok\":" << (r.ok ? "true" : "false") << "}\n";
  }
  for (const Slice& s : d.slices())
    out << "{\"span\":\"run_until\",\"phase\":" << int(s.phase)
        << ",\"sim_t0_us\":" << s.t0_us << ",\"sim_t1_us\":" << s.t1_us
        << ",\"cpu_ns\":" << s.cpu_ns << ",\"events\":" << s.events
        << ",\"frames\":" << s.frames << ",\"delivered\":" << s.delivered
        << "}\n";
}

/// Runs one leg: warm-up, steady, fault, ramp, drain, settle, checks.
/// With `to_checkpoint` it stops at the steady phase's checkpoint digest.
Leg run_leg(const WorkloadSpec& w, uint64_t seed, int leg, bool traced,
            const std::string& trace_prefix, bool to_checkpoint = false) {
  Leg out;
  const uint64_t sim_seed = stream_seed(seed, w.name, leg, 0, -2);
  Testbed tb(w, sim_seed, out.setup);
  out.groups = tb.groups();
  sim::Simulation& s = tb.sim();
  telemetry::TraceBuffer& trace = s.telemetry().trace();
  trace.set_enabled(traced);
  if (traced) trace.set_capacity(size_t{1} << 20);
  const telemetry::Registry& m = s.telemetry().metrics();
  Front& front = tb.front();
  OpenLoop d(tb, front, w, traced);

  auto arrivals = [&](const PhaseSpec& p, uint8_t phase, int64_t t0,
                      int step) {
    Rng rng(stream_seed(seed, w.name, leg, phase, step));
    return open_loop(rng, t0, at_s(t0, p.seconds).us, p.rate, p.mix,
                     w.users);
  };

  // Warm-up: fills the queue the reads and deletes act on; not measured.
  int64_t t0 = s.now().us;
  d.set_phase(kWarmup);
  d.add(arrivals(w.warmup, kWarmup, t0, -1), kWarmup, -1);
  d.run_to(at_s(t0, w.warmup.seconds));

  const Snapshot before = Snapshot::take(m);
  const uint64_t failovers0 = front.failovers();

  // Steady phase.
  t0 = s.now().us;
  d.set_phase(kSteady);
  std::vector<Arrival> steady_cmds = arrivals(w.steady, kSteady, t0, -1);
  // Listings are evenly spaced: a whole-queue listing can hold the shared
  // hub for a second, and two that overlap would set the phase's p99 by
  // chance placement.
  Rng listing_rng(stream_seed(seed, w.name, leg, kSteady, 1000));
  for (int i = 0; i < w.listings; ++i) {
    const double at = (i + 0.5) / w.listings;
    steady_cmds.push_back(Arrival{at_s(t0, at * w.steady.seconds).us,
                                  Kind::kStatAll,
                                  static_cast<uint32_t>(listing_rng.next() %
                                                        w.users),
                                  listing_rng.next()});
  }
  std::stable_sort(steady_cmds.begin(), steady_cmds.end(), by_due);
  d.add(steady_cmds, kSteady, -1);
  d.run_to(at_s(t0, w.steady.seconds * kCheckpointShare));
  out.checkpoint = behaviour_digest(tb, d);
  if (to_checkpoint) return out;
  d.run_to(at_s(t0, w.steady.seconds));
  out.views_steady =
      Snapshot::take(m).delta(before, "gcs.views_installed");

  // Fault phase: one head crash under traffic, then a restart and rejoin
  // once the service is quiet (see FaultSpec). Probe reads, one per head
  // rotation, are due 1 ms after the crash, so the gap measures how long
  // the service is unavailable to a user who tries every head, not how
  // long the next random arrival takes to come.
  // Only leg 0 runs the fault phase and the ramp; further legs add
  // steady-phase samples.
  const bool full = leg == 0;
  t0 = s.now().us;
  d.set_phase(kFault);
  const FaultSpec f = full ? w.fault : FaultSpec{};
  std::vector<int64_t> crash_us;
  if (f.head >= 0) {
    const size_t head = static_cast<size_t>(f.head);
    const sim::HostId host = tb.head_host(head);
    std::vector<Arrival> fault_cmds =
        arrivals(PhaseSpec{f.seconds, f.rate, f.mix}, kFault, t0, -1);
    tb.faults().crash_at(host, sim::Time{t0});
    crash_us.push_back(t0);
    for (uint32_t r = 0; r < tb.rotations(); ++r)
      fault_cmds.push_back(Arrival{t0 + 1000, Kind::kStat, r,
                                   stream_seed(seed, w.name, leg, 7,
                                               static_cast<int>(r))});
    std::stable_sort(fault_cmds.begin(), fault_cmds.end(), by_due);
    d.add(fault_cmds, kFault, -1);
    d.run_to(at_s(t0, f.seconds));
    drain(d, s, 600);
    auto live_jobs = [&] {
      size_t n = 0;
      for (size_t i = 0; i < tb.head_count(); ++i)
        if (i != head)
          for (pbs::JobState st : {pbs::JobState::kQueued,
                                   pbs::JobState::kRunning,
                                   pbs::JobState::kExiting})
            n += tb.pserver(i).count_in_state(st);
      return n;
    };
    const sim::Time quiet_limit = at_s(s.now().us, 600);
    while (live_jobs() > 0 && s.now() < quiet_limit)
      d.run_to(at_s(s.now().us, 1));
    if (live_jobs() > 0)
      out.violations.push_back("rejoin: jobs still live 600 s after the "
                               "fault phase");
    const sim::Time restart = at_s(s.now().us, 0.001);
    tb.faults().restart_at(host, restart);
    d.run_to(restart);
    tb.jserver(head).start();  // init brings the daemon back up
    auto back = d.run_polling(at_s(restart.us, 600),
                              [&] { return tb.serving(head); });
    if (back)
      out.rejoin_s.push_back((*back - restart).seconds());
    else
      out.violations.push_back("rejoin: head " + std::to_string(head) +
                               " not serving 600 s after its restart");
  }

  // Closing ramp: fixed steps. The highest rate that meets the limit is the
  // last step before the first miss; later steps still run (so every seed
  // does the same work) unless a step overloads the service.
  d.set_phase(kRamp);
  int last_pass = -1;
  const int64_t limit_us = static_cast<int64_t>(kLatencyLimitMs * 1000);
  for (size_t i = 0; full && i < w.ramp.rates.size(); ++i) {
    const double rate = w.ramp.rates[i];
    const double step_s = w.ramp.step_seconds(rate);
    const int64_t ts = s.now().us;
    const int64_t te = at_s(ts, step_s).us;
    const Snapshot step0 = Snapshot::take(m);
    const size_t first_rec = d.records().size();
    d.add(arrivals(PhaseSpec{step_s, rate, w.ramp.mix}, kRamp, ts,
                   static_cast<int>(i)),
          kRamp, static_cast<int16_t>(i));
    // Abort the step once more than 1% of its commands are twice the limit
    // overdue: its p99 can no longer meet the limit, and an overloaded step
    // left running would only pile up client timeouts.
    const size_t overdue_cap = static_cast<size_t>(w.ramp.cmds_per_step / 100);
    bool overdue = false;
    while (s.now().us < te && !overdue) {
      d.run_to(sim::Time{std::min(te, s.now().us + 100000)});
      size_t late = 0;
      for (size_t k = first_rec; k < d.records().size(); ++k)
        if (d.records()[k].done_us < 0 &&
            s.now().us - d.records()[k].due_us > 2 * limit_us)
          ++late;
      overdue = late > overdue_cap;
    }
    // Judge the step's commands at its end: an answer counts with its
    // latency (a failure as a miss), a command still unanswered after the
    // limit is a miss, and one younger than the limit is not judged.
    std::vector<double> lat;
    size_t failed = 0, backlog = 0;
    for (size_t k = first_rec; k < d.records().size(); ++k) {
      const Record& r = d.records()[k];
      if (r.done_us < 0) {
        ++backlog;
        if (s.now().us - r.due_us >= limit_us) lat.push_back(INFINITY);
        continue;
      }
      if (!r.ok) ++failed;
      lat.push_back(r.ok ? static_cast<double>(r.done_us - r.due_us) / 1000.0
                         : INFINITY);
    }
    const uint64_t views =
        Snapshot::take(m).delta(step0, "gcs.views_installed");
    const bool pass = !overdue && !lat.empty() && failed == 0 &&
                      latency_quantile(lat, 0.99) <= kLatencyLimitMs &&
                      views == 0 &&
                      static_cast<double>(backlog) <=
                          rate * kLatencyLimitMs / 1000.0 + 5;
    if (pass && last_pass == static_cast<int>(i) - 1)
      last_pass = static_cast<int>(i);
    if (overdue) break;
  }
  d.cancel_pending();
  out.delta = Snapshot::diff(Snapshot::take(m), before);
  out.failovers = front.failovers() - failovers0;
  out.pipeline_mean = d.gauge_mean("gcs.pipeline_depth");
  out.util_mean = d.gauge_mean("pbs.sched.utilization_pct");

  // Drain, settle, check.
  d.set_phase(kDrain);
  drain(d, s, 600);
  d.run_to(at_s(s.now().us, w.settle_s));
  const sim::Time settle_limit = at_s(s.now().us, 600);
  while (!tables_settled(tb) && s.now() < settle_limit)
    d.run_to(at_s(s.now().us, 1));
  std::vector<std::string> found = check_outputs(tb, d);
  out.violations.insert(out.violations.end(), found.begin(), found.end());
  out.digest = behaviour_digest(tb, d);

  // Commands of the measured phases.
  for (const Record& r : d.records()) {
    if (r.phase < kSteady || r.phase > kRamp) continue;
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    if (r.phase == kSteady) ++out.steady_ok;
    bool read = r.kind == Kind::kStat || r.kind == Kind::kStatAll;
    if (!read || !w.jstat_local) ++out.ordered;
    if (r.job != pbs::kInvalidJob)
      if (auto g = tb.owner_of(r.job)) out.per_group[*g] += 1;
  }
  for (int k = 0; k < kKinds; ++k)
    out.lat[k] = latencies_ms(d, static_cast<Kind>(k), kSteady);

  // The highest passing rate, scaled by the share of its commands served
  // within the limit (goodput at that step).
  if (last_pass >= 0) {
    double n = 0, good = 0;
    for (const Record& r : d.records())
      if (r.phase == kRamp && r.step == last_pass) {
        n += 1;
        if (r.ok && r.done_us - r.due_us <= limit_us) good += 1;
      }
    if (n > 0)
      out.max_rate = w.ramp.rates[static_cast<size_t>(last_pass)] * good / n;
  }

  for (int64_t c : crash_us) {
    int64_t first = -1;
    for (const Record& r : d.records())
      if (r.ok && r.due_us >= c && (first < 0 || r.done_us < first))
        first = r.done_us;
    if (first < 0)
      out.violations.push_back("failover: no reply after the crash at " +
                               std::to_string(c) + " us");
    else
      out.gaps_ms.push_back(static_cast<double>(first - c) / 1000.0);
  }

  out.cpu_ns = d.cpu_ns(kSteady) + d.cpu_ns(kFault) + d.cpu_ns(kRamp);
  out.steady_cpu_ns = d.cpu_ns(kSteady);
  out.events = d.events(kSteady) + d.events(kFault) + d.events(kRamp);
  out.failed += out.violations.size();

  if (traced) {
    const std::string prefix = trace_prefix + "-leg" + std::to_string(leg);
    write_spans(prefix + ".spans.jsonl", d);
    std::vector<std::string> names;
    for (size_t h = 0; h < tb.net().host_count(); ++h)
      names.push_back(tb.net().host(static_cast<sim::HostId>(h)).name());
    telemetry::write_chrome_trace_file(prefix + ".chrome.json", trace, names);
  }
  return out;
}

struct PassResult {
  Metrics sim;    ///< simulated-time end-to-end metrics
  Metrics layer;  ///< per-layer metrics
  double cmds_per_cpu_s = 0;
  uint64_t checkpoint = 0;  ///< the first leg's
  uint64_t digest = 0;
  size_t samples[kKinds] = {};  ///< steady-phase latencies behind each kind
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

PassResult run_pass(const WorkloadSpec& w, uint64_t seed, bool traced,
                    const std::string& trace_prefix) {
  std::vector<Leg> legs;
  for (int l = 0; l < w.legs; ++l)
    legs.push_back(run_leg(w, seed, l, traced, trace_prefix));

  PassResult res;
  res.checkpoint = legs.front().checkpoint;
  Leg all;
  int64_t cpu_ns = 0;
  for (const Leg& g : legs) {
    for (int k = 0; k < kKinds; ++k)
      all.lat[k].insert(all.lat[k].end(), g.lat[k].begin(), g.lat[k].end());
    all.gaps_ms.insert(all.gaps_ms.end(), g.gaps_ms.begin(), g.gaps_ms.end());
    all.rejoin_s.insert(all.rejoin_s.end(), g.rejoin_s.begin(),
                        g.rejoin_s.end());
    all.ok += g.ok;
    all.ordered += g.ordered;
    all.events += g.events;
    all.delta.add(g.delta);
    all.views_steady += g.views_steady;
    all.failovers += g.failovers;
    all.pipeline_mean += g.pipeline_mean / static_cast<double>(legs.size());
    all.util_mean += g.util_mean / static_cast<double>(legs.size());
    for (const auto& [grp, n] : g.per_group) all.per_group[grp] += n;
    cpu_ns += g.cpu_ns;
    all.steady_ok += g.steady_ok;
    all.steady_cpu_ns += g.steady_cpu_ns;
    res.attempted += g.attempted;
    res.failed += g.failed;
    res.violations.insert(res.violations.end(), g.violations.begin(),
                          g.violations.end());
    res.digest = res.digest * 1099511628211ull ^ g.digest;
  }

  // -- end-to-end, simulated time -------------------------------------------
  for (int k = 0; k < kKinds; ++k) res.samples[k] = all.lat[k].size();
  const auto& sub = all.lat[static_cast<int>(Kind::kSub)];
  const auto& stat = all.lat[static_cast<int>(Kind::kStat)];
  res.sim["jsub_p50_ms"] = latency_quantile(sub, 0.5);
  res.sim["jsub_p99_ms"] = latency_quantile(sub, 0.99);
  res.sim["jstat_p50_ms"] = latency_quantile(stat, 0.5);
  res.sim["jstat_p99_ms"] = latency_quantile(stat, 0.99);

  // -- per layer ------------------------------------------------------------
  const double cpu_s = static_cast<double>(cpu_ns) / 1e9;
  // Simulator speed over the steady phase: the same work on every seed,
  // where the fault phase and the ramp's length vary with the seed.
  res.cmds_per_cpu_s =
      all.steady_cpu_ns > 0 ? static_cast<double>(all.steady_ok) * 1e9 /
                                  static_cast<double>(all.steady_cpu_ns)
                            : 0;
  const double cmds = std::max<double>(1.0, static_cast<double>(all.ok));
  const double ordered =
      std::max<double>(1.0, static_cast<double>(all.ordered));
  const double events = static_cast<double>(all.events);
  const Snapshot& dt = all.delta;
  auto cnt = [&](const char* name) {
    auto it = dt.counters.find(name);
    return it == dt.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist = [&](const char* name) {
    auto it = dt.histograms.find(name);
    return it == dt.histograms.end() ? telemetry::HistogramData{}
                                     : it->second;
  };
  Metrics& L = res.layer;
  // Whole-queue listings are few per run; their median is a layer metric,
  // 0 in workloads without listings.
  const auto& listings = all.lat[static_cast<int>(Kind::kStatAll)];
  L["jstat_all_p50_ms"] =
      listings.empty() ? 0 : latency_quantile(listings, 0.5);
  // Fault metrics are 0 in workloads without a fault phase.
  L["fault.gap_ms"] =
      all.gaps_ms.empty()
          ? 0
          : *std::max_element(all.gaps_ms.begin(), all.gaps_ms.end());
  L["fault.rejoin_s"] = all.rejoin_s.empty() ? 0 : median(all.rejoin_s);
  L["ramp.max_rate_cmds_per_s"] = legs.front().max_rate;
  L["failed_frac"] =
      res.attempted > 0 ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 0;

  L["sim.events_per_cmd"] = events / cmds;
  L["sim.ns_per_event"] = cpu_s * 1e9 / std::max(1.0, events);
  L["sim.cpu_s"] = cpu_s;

  L["net.frames_per_cmd"] = cnt("net.frames_sent") / cmds;
  L["net.bytes_per_cmd"] = cnt("net.bytes_sent") / cmds;
  L["net.frames_dropped"] = cnt("net.frames_dropped");
  L["net.medium_wait_us.p99"] = hist("net.medium_wait_us").percentile(99);

  const auto order = hist("gcs.order_latency_us");
  L["gcs.order_ms.p50"] = order.percentile(50) / 1000.0;
  L["gcs.order_ms.p99"] = order.percentile(99) / 1000.0;
  L["gcs.ctrl_msgs_per_cmd"] =
      (cnt("gcs.cuts_sent") + cnt("gcs.engine_msgs_sent")) / ordered;
  L["gcs.nacks_sent"] = cnt("gcs.nacks_sent");
  L["gcs.retransmits_served"] = cnt("gcs.retransmits_served");
  L["gcs.batch_size.mean"] = hist("gcs.batch_size").mean();
  L["gcs.window_stalls"] = cnt("gcs.window_stalls");
  L["gcs.pipeline_depth.mean"] = all.pipeline_mean;
  L["gcs.token.rotations"] = cnt("gcs.token.rotations");
  L["gcs.token.hold_ms.mean"] = hist("gcs.token.hold_us").mean() / 1000.0;
  L["gcs.views_installed"] = cnt("gcs.views_installed");
  L["gcs.views_installed.steady"] = static_cast<double>(all.views_steady);

  const auto i2r = hist("joshua.intercept_to_reply_us");
  L["joshua.intercept_to_reply_ms.p50"] = i2r.percentile(50) / 1000.0;
  L["joshua.intercept_to_reply_ms.p99"] = i2r.percentile(99) / 1000.0;
  L["joshua.jmutex_wait_ms.p99"] =
      hist("joshua.jmutex_wait_us").percentile(99) / 1000.0;
  const double grants = cnt("joshua.mutex_grants");
  const double claims = grants + cnt("joshua.mutex_denials");
  L["joshua.mutex_grant_ratio"] = claims > 0 ? grants / claims : 0;
  L["joshua.replays_applied"] = cnt("joshua.replays_applied");
  double divergence = 0;
  for (const auto& [name, v] : dt.counters)
    if (name.rfind("joshua.replay_divergence", 0) == 0)
      divergence += static_cast<double>(v);
  L["joshua.replay_divergence"] = divergence;
  L["joshua.jstat_local_ms.p99"] =
      hist("joshua.jstat_local_us").percentile(99) / 1000.0;
  L["client.failovers"] = static_cast<double>(all.failovers);

  L["pbs.queue_wait_ms.p50"] = hist("pbs.queue_wait_us").percentile(50) / 1000.0;
  L["pbs.sched_cycles"] = cnt("pbs.sched_cycles");
  L["pbs.jobs_launched"] = cnt("pbs.jobs_launched");
  L["pbs.jobs_completed"] = cnt("pbs.jobs_completed");
  L["pbs.jobs_requeued"] = cnt("pbs.jobs_requeued");
  L["pbs.sched.utilization_pct"] = all.util_mean;

  L["fed.routed"] = cnt("fed.routed");
  L["fed.fanouts"] = cnt("fed.fanouts");
  L["fed.fanout_reads"] = cnt("fed.fanout_reads");
  // Max over mean of the commands each ordering group received.
  double mx = 0, sum = 0;
  const uint32_t groups = legs.front().groups;
  for (uint32_t g = 0; g < groups; ++g) {
    auto it = all.per_group.find(g);
    double v = it == all.per_group.end() ? 0.0 : it->second;
    mx = std::max(mx, v);
    sum += v;
  }
  L["fed.shard_skew"] = sum > 0 ? mx / (sum / groups) : 1.0;

  SetupTimes first = legs.front().setup;
  L["setup.build_s"] = first.build_s;
  L["setup.converge_s"] = first.converge_s;
  L["setup.preload_s"] = first.preload_s;
  return res;
}

/// One-head reference leg (the single-node baseline of the paper's Fig.
/// 10): the workload's cost model on one head, a low-rate jsub stream.
double reference_jsub_p50(const WorkloadSpec& w, uint64_t seed) {
  WorkloadSpec one = w;
  one.shards = 1;
  one.heads_per_shard = 1;
  one.preload_arrays_per_shard = 0;
  SetupTimes st;
  Testbed tb(one, seed, st);
  tb.sim().telemetry().trace().set_enabled(false);
  OpenLoop d(tb, tb.front(), one, false);
  d.set_phase(kSteady);
  Rng rng(stream_seed(seed, w.name, 0, 9, 0));
  int64_t t0 = tb.sim().now().us;
  d.add(open_loop(rng, t0, at_s(t0, one.ref_seconds).us, one.ref_rate, Mix{},
                  one.users),
        kSteady, -1);
  d.run_to(at_s(t0, one.ref_seconds));
  d.set_phase(kDrain);
  drain(d, tb.sim(), 120);
  return latency_quantile(latencies_ms(d, Kind::kSub, kSteady), 0.5);
}

/// Set-up CPU times in rounds: each round sets up once on every CPU the
/// process may use, pinned there, and counts its fastest one; rounds go on
/// for about `budget_s` CPU seconds. The original affinity is restored.
/// On a shared host some CPUs run up to half again slower than others, and
/// which ones moves from minute to minute; the fastest CPU of a round is the
/// one least slowed by other tenants.
std::vector<double> setup_rounds(const WorkloadSpec& w, uint64_t seed,
                                 double budget_s) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // affinity unavailable: stay put
  std::vector<double> out;
  double spent = 0;
  for (int n = 0; n < 3 || (spent < budget_s && n < 2000); ++n) {
    double fastest = INFINITY;
    for (int c : cpus) {
      if (c >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        sched_setaffinity(0, sizeof one, &one);
      }
      SetupTimes st;
      Testbed tb(w, stream_seed(seed, w.name, 0, 0, -2), st);
      fastest = std::min(fastest, st.total());
      spent += st.total();
    }
    out.push_back(fastest);
  }
  if (cpus.front() >= 0) sched_setaffinity(0, sizeof allowed, &allowed);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_metric(std::ostringstream& o, bool& first, const std::string& name,
                  double value) {
  if (!std::isfinite(value)) value = -1;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
    << ", \"unit\": \"" << units().at(name) << "\"}";
  first = false;
}

int run(const Args& a) {
  const WorkloadSpec w = workload(a.workload);
  std::cout << "options " << resolved_options_json(w) << std::endl;

  const double start = wall_now_s();
  std::vector<PassResult> passes;
  const std::string prefix =
      a.out_dir + "/" + w.name + "-seed" + std::to_string(a.seed);
  // Untraced passes fill the budget (half of it when a traced pass follows).
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  // Another pass runs only if it is expected to end within the budget.
  do {
    passes.push_back(run_pass(w, a.seed, false, prefix));
    std::cerr << "pass " << passes.size() << ": "
              << passes.back().cmds_per_cpu_s << " cmds/cpu-s" << std::endl;
  } while ((wall_now_s() - start) * static_cast<double>(passes.size() + 1) /
               static_cast<double>(passes.size()) <=
           untraced_budget);
  if (a.trace) passes.push_back(run_pass(w, a.seed, true, prefix));
  // However many passes fitted, the first leg is run once more with the
  // same seed up to its checkpoint, which must reproduce pass 1's.
  const Leg rerun = run_leg(w, a.seed, 0, false, prefix, true);
  // setup_s is the median over set-up rounds (see setup_rounds) spread
  // over about three CPU seconds, so that a set-up of a millisecond still
  // reads steadily. They run after the passes: set-ups before them paid
  // the page faults of fresh memory and took half again as long.
  const std::vector<double> setups = setup_rounds(w, a.seed, 3);
  // Checks, printed by name.
  const PassResult& first = passes.front();
  std::vector<std::string> violations = first.violations;
  if (rerun.checkpoint != first.checkpoint)
    violations.push_back(
        "deterministic: a rerun of leg 1 differs from pass 1 at its "
        "checkpoint");
  for (size_t i = 1; i < passes.size(); ++i)
    if (passes[i].digest != first.digest)
      violations.push_back("deterministic: pass " + std::to_string(i + 1) +
                           " differs from pass 1");
  const char* names[] = {"tables_equal",    "no_job_lost",
                         "launched_once",   "jdel_consistent",
                         "jstat_consistent", "replay_divergence",
                         "rejoin",          "failover",
                         "deterministic"};
  for (const char* n : names) {
    size_t count = 0;
    for (const auto& v : violations)
      if (v.rfind(n, 0) == 0) ++count;
    std::cout << "check " << n << ": "
              << (count == 0 ? "ok" : "FAIL (" + std::to_string(count) + ")")
              << "\n";
  }
  const uint64_t failed =
      first.failed + (violations.size() - first.violations.size());
  std::cout << "check commands_ok: "
            << first.attempted - (first.failed - first.violations.size())
            << "/" << first.attempted << "\n";
  // Every violation counts; the first few of each check are printed.
  std::map<std::string, size_t> shown;
  for (const auto& v : violations)
    if (shown[v.substr(0, v.find(':'))]++ < 5)
      std::cout << "violation " << v << "\n";
  std::cout << "samples";
  for (int k = 0; k < kKinds; ++k)
    std::cout << " " << kind_name(static_cast<Kind>(k)) << "="
              << first.samples[k];
  std::cout << "\n";

  std::vector<double> untraced;
  for (size_t i = 0; i < passes.size() - (a.trace ? 1 : 0); ++i)
    untraced.push_back(passes[i].cmds_per_cpu_s);

  std::ostringstream o;
  bool f = true;
  o << "{\"correct\": " << (violations.empty() ? "true" : "false")
    << ", \"attempted\": " << first.attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  if (!a.trace) {
    for (const auto& [name, value] : first.sim) print_metric(o, f, name, value);
    print_metric(o, f, "setup_s", median(setups));
    print_metric(o, f, "peak_rss_mb", peak_rss_mb());
  } else {
    const PassResult& traced = passes.back();
    for (const auto& [name, value] : traced.layer)
      print_metric(o, f, name, value);
    print_metric(o, f, "ref.one_head.jsub_p50_ms",
                 reference_jsub_p50(w, a.seed));
    // Simulator speed is a layer metric: on a shared host, CPU time per
    // unit of work moves by a fifth between processes.
    const double base = median(untraced);
    print_metric(o, f, "cmds_per_cpu_s", base);
    print_metric(o, f, "trace.cmds_per_cpu_s", traced.cmds_per_cpu_s);
    print_metric(o, f, "trace.overhead_pct",
                 base > 0 ? (base - traced.cmds_per_cpu_s) / base * 100.0 : 0);
  }
  o << "}}";
  std::cerr << "wall " << wall_now_s() - start << " s, " << passes.size()
            << " passes" << std::endl;
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      std::cerr << "perfbench: unknown option " << k << "\n";
      return 2;
    }
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
