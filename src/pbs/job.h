// PBS job model: job specification, runtime record, and the PBS state
// machine (TORQUE-compatible states Q/H/W/R/E/C).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.h"
#include "sim/time.h"

namespace pbs {

using JobId = uint64_t;
constexpr JobId kInvalidJob = 0;

/// PBS job states (subset of TORQUE's qstat letters).
enum class JobState : uint8_t {
  kQueued = 0,     ///< Q - eligible to run
  kHeld = 1,       ///< H - user/operator hold
  kWaiting = 2,    ///< W - waiting for its execution window
  kRunning = 3,    ///< R - started on a mom
  kExiting = 4,    ///< E - finishing up
  kComplete = 5,   ///< C - done (also covers cancelled)
};

std::string_view to_string(JobState s);
char state_letter(JobState s);

/// The rarely set parts of a spec, kept behind one pointer so that a plain
/// spec stays small.
struct JobExtras {
  std::string script;           ///< payload carried for realism
  /// Node type / feature requests (heterogeneous clusters). Empty = any
  /// node; features are conjunctive ("gpu" AND "bigmem").
  std::string node_type;
  std::vector<std::string> features;

  bool operator==(const JobExtras&) const = default;
};

/// What the user submits (the qsub arguments + script).
struct JobSpec {
  std::string name = "job";
  std::string user = "user";
  /// Destination queue (qsub -q). The PBS server itself treats every queue
  /// alike (single-queue semantics, as the paper's testbed); the federation
  /// layer routes submits to the shard whose queue globs match.
  std::string queue = "batch";
  uint32_t nodes = 1;           ///< requested node count
  sim::Duration walltime = sim::minutes(10);  ///< requested limit
  sim::Duration run_time = sim::seconds(1);   ///< actual (simulated) runtime
  int32_t priority = 0;
  /// Replication factor: dispatch to `replicas` disjoint node sets;
  /// first-to-finish wins and the losers are reaped. 1 = the paper's
  /// unreplicated compute plane.
  uint32_t replicas = 1;
  /// Job-array request (qsub -t 0-(N-1)): the server expands the submit
  /// into `array_count` sub-jobs with consecutive ids and ranks, all
  /// through the ordered stream. 0/1 = plain single job.
  uint32_t array_count = 0;
  /// -1 on a plain submit. A submit with an index >= 0 creates that one
  /// member of an array (name "name[index]"): the replay transfer rewrites a
  /// partially finished array into such submits.
  int32_t array_index = -1;
  /// Null when no extra is set.
  std::shared_ptr<const JobExtras> extras;

  const std::string& script() const;
  const std::string& node_type() const;
  const std::vector<std::string>& features() const;

  /// Jobs one submit of this spec creates.
  uint32_t submit_count() const {
    return array_index < 0 && array_count > 1 ? array_count : 1;
  }

  /// Field-wise; extras compare by content.
  bool operator==(const JobSpec& other) const;
};

/// Server-side runtime record. The spec is immutable and shared: every
/// sub-job of an array points at the array's one spec (its name without the
/// "[i]" suffix, array_index -1) and keeps only its own index. On the wire a
/// record carries the full per-job spec, as it always has; decode_job gives
/// back the shared form.
struct Job {
  JobId id = kInvalidJob;
  std::shared_ptr<const JobSpec> spec = default_spec();  ///< never null
  sim::Time submit_time{0};
  sim::Time start_time{0};
  sim::Time end_time{0};
  uint64_t queue_rank = 0;   ///< FIFO position (submission order)
  /// Mother-superior hosts of every live replica (exec_host is the first).
  /// Shrinks as replicas fail or are reaped; empty once the job completes.
  std::vector<sim::HostId> replica_hosts;
  int32_t exit_code = 0;
  sim::HostId exec_host = sim::kInvalidHost;  ///< mom host while running
  /// Index within the array `spec` describes; -1 = `spec` is this job's own.
  int32_t array_index = -1;
  JobState state = JobState::kQueued;
  bool cancelled = false;

  bool terminal() const { return state == JobState::kComplete; }
  bool active() const {
    return state == JobState::kRunning || state == JobState::kExiting;
  }
  /// The job's name as submitted or derived ("name[i]" for a sub-job).
  std::string name() const;

  static const std::shared_ptr<const JobSpec>& default_spec();
};

/// "17.cluster" style PBS job id string.
std::string job_id_string(JobId id, const std::string& server_suffix);

void encode_job_spec(net::Writer& w, const JobSpec& spec);
JobSpec decode_job_spec(net::Reader& r);

void encode_job(net::Writer& w, const Job& job);
/// Shares `prev`'s spec when the decoded one is equal to it, so a listing
/// or snapshot gives back one spec per array.
Job decode_job(net::Reader& r, const Job* prev = nullptr);

}  // namespace pbs
