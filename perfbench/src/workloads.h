// The benchmark's workloads. Every option the program would otherwise
// default from the environment (JOSHUA_ORDERING, JOSHUA_ORDER_BATCH,
// JOSHUA_ORDER_WINDOW, JOSHUA_SCHED, JOSHUA_SELECT) is pinned here, so the
// environment a run happens in cannot change what is measured.
#pragma once

#include <string>
#include <vector>

#include "arrivals.h"
#include "gcs/ordering_engine.h"
#include "sim/calibration.h"

namespace perfbench {

/// Simulated-time latency limit every workload's p99 is held to.
constexpr double kLatencyLimitMs = 1000.0;
/// Jobs per preload array (the PBS server's array size limit).
constexpr uint32_t kPreloadArraySize = 4096;

struct PhaseSpec {
  double seconds = 0;
  double rate = 0;  ///< commands per simulated second
  Mix mix;
};

/// One head crash at the phase start; traffic keeps arriving at `rate` for
/// `seconds`. Once every command of the phase is answered and no job is
/// live, the head restarts and rejoins through replay transfer.
/// The restart waits for a quiet service because of a defect of the
/// program: a head that rejoins while commands are being ordered can take
/// two views and two state transfers in a row, and then assigns job ids
/// the rest of the group does not, so its table never equals theirs.
/// No head: the workload has no fault phase.
struct FaultSpec {
  int head = -1;
  double seconds = 0;
  double rate = 0;
  Mix mix;
};

/// Closing rate ramp: fixed steps of `cmds_per_step` expected commands
/// each. A step passes when its p99 meets the limit and it fails no
/// command, installs no view and grows no backlog; the ramp ends early
/// only when a step overloads the service.
struct RampSpec {
  std::vector<double> rates;
  double cmds_per_step = 0;
  Mix mix;
  double step_seconds(double rate) const { return cmds_per_step / rate; }
};

struct WorkloadSpec {
  std::string name;

  // Topology. federated = false builds a joshua::Cluster (shards must be 1).
  bool federated = false;
  int shards = 1;
  int heads_per_shard = 4;
  int computes_per_shard = 2;

  // Cost model and pinned options.
  sim::Calibration cal = sim::paper_testbed();
  gcs::OrderingMode ordering = gcs::OrderingMode::kAllAck;
  uint32_t order_batch = 0;
  uint32_t order_window = 0;
  std::string sched_policy = "fifo";
  std::string node_selector = "firstfit";
  bool exclusive_cluster = true;
  bool persist = true;  ///< federations only; joshua::Cluster always persists
  bool jstat_local = false;
  /// gcs overrides; zero keeps the GroupConfig defaults.
  sim::Duration gcs_heartbeat = sim::kDurationZero;
  sim::Duration gcs_suspect = sim::kDurationZero;
  sim::Duration gcs_flush = sim::kDurationZero;
  sim::Duration gcs_hb_proc = sim::kDurationZero;
  sim::Duration gcs_ctrl_proc = sim::kDurationZero;

  /// Deep queue: job arrays of kPreloadArraySize queued jobs submitted to
  /// every shard before traffic (federations only).
  uint32_t preload_arrays_per_shard = 0;
  sim::Duration job_run_time = sim::seconds(2);
  uint32_t users = 64;
  /// Queue names submits spread over (federations place by queue hash).
  uint32_t queues = 1;

  PhaseSpec warmup;
  PhaseSpec steady;
  /// Whole-queue listings (jstat of every job) evenly spaced over the
  /// steady phase, each from a random user.
  int listings = 0;
  FaultSpec fault;
  RampSpec ramp;
  /// Settle period after the last command before the tables are compared.
  double settle_s = 30;
  /// Independent testbeds per pass (each with its own derived seed); their
  /// steady-phase samples are pooled, which buys percentile precision
  /// without growing one testbed's job history. Only the first runs the
  /// fault phase and the ramp.
  int legs = 1;
  /// One-head reference leg: jsub stream at this rate for this long.
  double ref_rate = 0.2;
  double ref_seconds = 300;
};

/// paper4, ring64, fed_deep; throws std::invalid_argument on another name.
WorkloadSpec workload(const std::string& name);

/// Resolved options as one JSON object (printed with the results).
std::string resolved_options_json(const WorkloadSpec& w);

}  // namespace perfbench
