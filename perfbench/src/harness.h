// The benchmark's harness around the program: builds a testbed from a
// workload, drives it with open-loop traffic through the public client
// surface (joshua::Client, fed::Router), times every call it makes into the
// simulator, and checks the outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arrivals.h"
#include "fed/federation.h"
#include "joshua/cluster.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

/// Process CPU time in nanoseconds and in seconds.
int64_t cpu_now_ns();
double cpu_now_s();
/// Monotonic wall time in seconds.
double wall_now_s();

struct SetupTimes {
  double build_s = 0;
  double converge_s = 0;
  double preload_s = 0;
  double total() const { return build_s + converge_s + preload_s; }
};

/// Client-side surface shared by the two front ends. Every in-flight
/// command gets its own client object (taken from a per-rotation pool), so
/// a stalled reply never delays the next send.
class Front {
 public:
  using SubmitDone = std::function<void(std::optional<pbs::SubmitResponse>)>;
  using StatDone = std::function<void(std::optional<pbs::StatResponse>)>;
  using SimpleDone = std::function<void(std::optional<pbs::SimpleResponse>)>;
  virtual ~Front() = default;
  virtual void jsub(uint32_t user, pbs::JobSpec spec, SubmitDone done) = 0;
  virtual void jstat(uint32_t user, pbs::StatRequest req, StatDone done) = 0;
  virtual void jdel(uint32_t user, pbs::JobId id, SimpleDone done) = 0;
  /// Head failovers summed over every client ever created.
  virtual uint64_t failovers() const = 0;
};

/// joshua::Cluster or fed::Federation behind one accessor surface.
class Testbed {
 public:
  Testbed(const WorkloadSpec& w, uint64_t seed, SetupTimes& times);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& sim();
  sim::Network& net();
  sim::FailureInjector& faults();
  size_t head_count() const;
  size_t compute_count() const;
  sim::HostId head_host(size_t i) const;
  joshua::Server& jserver(size_t i);
  pbs::Server& pserver(size_t i);
  pbs::Mom& mom(size_t i);
  uint32_t group_of(size_t head) const;
  uint32_t groups() const;
  /// Up, a group member and not replaying a state transfer.
  bool serving(size_t head);
  std::optional<uint32_t> owner_of(pbs::JobId id) const;
  Front& front() { return *front_; }
  /// Client rotations the front end binds users to.
  uint32_t rotations() const;
  /// Id ranges [first, first + count) of the preloaded queued jobs.
  const std::vector<std::pair<pbs::JobId, uint64_t>>& preloaded() const {
    return preloaded_;
  }

 private:
  std::unique_ptr<Front> make_front(uint32_t first_port);
  void preload();

  const WorkloadSpec& w_;
  std::vector<std::pair<pbs::JobId, uint64_t>> preloaded_;
  std::unique_ptr<joshua::Cluster> cluster_;
  std::unique_ptr<fed::Federation> fed_;
  std::unique_ptr<Front> front_;
};

/// One command as the client saw it; times in simulated microseconds.
struct Record {
  int64_t due_us = 0;
  int64_t issued_us = 0;
  int64_t done_us = -1;  ///< -1 = no reply yet
  pbs::JobId job = 0;    ///< submitted / targeted job
  Kind kind = Kind::kSub;
  uint8_t phase = 0;
  int16_t step = -1;  ///< ramp step, -1 outside the ramp
  uint32_t user = 0;
  bool ok = false;
};

enum Phase : uint8_t { kWarmup = 0, kSteady, kFault, kRamp, kDrain };

/// One run_until slice as the benchmark timed it.
struct Slice {
  int64_t t0_us = 0;
  int64_t t1_us = 0;
  int64_t cpu_ns = 0;
  uint64_t events = 0;
  uint64_t frames = 0;
  uint64_t delivered = 0;
  uint8_t phase = 0;
};

/// Counter and histogram values at one instant, for per-phase deltas.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, telemetry::HistogramData> histograms;
  static Snapshot take(const telemetry::Registry& m);
  uint64_t delta(const Snapshot& before, const std::string& name) const;
  telemetry::HistogramData hist_delta(const Snapshot& before,
                                      const std::string& name) const;
  /// Per-metric deltas after - before, as a snapshot of its own.
  static Snapshot diff(const Snapshot& after, const Snapshot& before);
  /// Sum another snapshot of deltas into this one.
  void add(const Snapshot& d);
};

/// Open-loop load generator: issues arrivals at their due time through the front
/// end and runs the simulation in timed slices.
class OpenLoop {
 public:
  OpenLoop(Testbed& tb, Front& front, const WorkloadSpec& w, bool traced);

  void add(const std::vector<Arrival>& arrivals, uint8_t phase, int16_t step);
  /// Drop every arrival not yet issued.
  void cancel_pending();
  /// run_until(t) in slices, each timed and (traced) recorded.
  void run_to(sim::Time t);
  /// Run in 100 us steps until pred() or `limit`; returns the time pred()
  /// first held, or nullopt.
  std::optional<sim::Time> run_polling(sim::Time limit,
                                       const std::function<bool()>& pred);
  size_t outstanding() const { return outstanding_; }
  void set_phase(uint8_t phase) { phase_ = phase; }

  const std::vector<Record>& records() const { return records_; }
  const std::vector<Slice>& slices() const { return slices_; }
  /// Jobs the service acknowledged, in acknowledgement order.
  const std::vector<pbs::JobId>& accepted() const { return accepted_; }
  /// jdel outcomes by job id.
  const std::map<pbs::JobId, pbs::Status>& deletes() const { return deletes_; }
  /// Jobs a jstat was told are unknown, with the time of the first such
  /// answer.
  const std::map<pbs::JobId, int64_t>& stat_unknown() const {
    return stat_unknown_;
  }
  int64_t cpu_ns(uint8_t phase) const { return cpu_ns_[phase]; }
  uint64_t events(uint8_t phase) const { return events_[phase]; }
  /// Time-weighted mean of a sampled gauge (read at each slice end) over
  /// the measured phases.
  double gauge_mean(const std::string& name) const;

 private:
  void arm();
  void fire();
  void issue(const Arrival& a, uint8_t phase, int16_t step);
  void finish(size_t idx, bool ok, pbs::JobId job);
  pbs::JobId pick_stat_target(uint64_t pick);

  Testbed& tb_;
  Front& front_;
  const WorkloadSpec& w_;
  bool traced_;
  struct Pending {
    Arrival a;
    uint8_t phase;
    int16_t step;
  };
  std::vector<Pending> queue_;
  size_t next_ = 0;
  sim::EventId armed_ = sim::kInvalidEvent;
  std::vector<Record> records_;
  std::vector<pbs::JobId> accepted_;
  std::vector<pbs::JobId> deletable_;
  std::map<pbs::JobId, pbs::Status> deletes_;
  std::map<pbs::JobId, int64_t> stat_unknown_;
  size_t outstanding_ = 0;
  uint8_t phase_ = kWarmup;
  int64_t cpu_ns_[kDrain + 1] = {};
  uint64_t events_[kDrain + 1] = {};
  std::vector<Slice> slices_;
  /// Per gauge: sum of value * slice length, and of slice lengths.
  std::map<std::string, std::pair<double, double>> gauge_sums_;
  telemetry::Counter frames_;
  telemetry::Counter delivered_;
};

/// Every head serving and the heads of each group holding equal live job
/// tables.
bool tables_settled(Testbed& tb);

/// Post-run correctness checks; each violation is one line.
std::vector<std::string> check_outputs(Testbed& tb, const OpenLoop& d);

/// Digest of everything simulated-time the run produced (records and final
/// job tables): equal seeds must give equal digests.
uint64_t behaviour_digest(Testbed& tb, const OpenLoop& d);

}  // namespace perfbench
