// PBS service-interface wire protocol.
//
// This is the interface JOSHUA wraps (external replication works purely at
// this boundary, exactly as the paper wraps TORQUE's PBS interface).
// Client->server ops mirror the PBS user commands; server<->mom ops carry
// job launch/kill/completion traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pbs/job.h"

namespace pbs {

enum class Op : uint8_t {
  // client -> server (PBS user commands)
  kSubmit = 1,   ///< qsub
  kStat = 2,     ///< qstat
  kDelete = 3,   ///< qdel
  kSignal = 4,   ///< qsig
  kHold = 5,     ///< qhold
  kRelease = 6,  ///< qrls
  /// Requeue a running job so a higher-priority one can take its nodes.
  /// Never issued by clients: JOSHUA injects it after an ordered kPreempt
  /// group op so every head requeues the victim at the same stream point.
  kPreempt = 7,
  // management (state transfer support)
  kDumpState = 10,
  kLoadState = 11,
  // server -> mom
  kMomLaunch = 20,
  kMomKill = 21,
  kMomEmuComplete = 22,  ///< head tells mom an emulated launch finished
  kMomPing = 23,         ///< heartbeat probe (server -> mom)
  // mom -> server
  kJobReport = 30,  ///< job completion / statistics report
};

/// Error codes roughly matching PBS exit semantics.
enum class Status : uint8_t {
  kOk = 0,
  kUnknownJob = 1,
  kInvalidState = 2,
  kUnsupported = 3,
  kServerBusy = 4,
  kInternal = 5,
};

std::string_view to_string(Status s);

struct SubmitRequest {
  JobSpec spec;
  /// Normally kInvalidJob (the server numbers the job). State-transfer
  /// replay sets the original id so a joining head rebuilds an identical
  /// queue (the paper copies the server's sequence state with its config).
  JobId forced_id = kInvalidJob;
};
struct SubmitResponse {
  Status status = Status::kOk;
  /// First id assigned; an array submit owns [job_id, job_id + count).
  JobId job_id = kInvalidJob;
  uint32_t count = 1;  ///< sub-jobs created (1 for a plain submit)
};

struct StatRequest {
  JobId job_id = kInvalidJob;  ///< 0 = all jobs
  bool include_complete = true;
};
struct StatResponse {
  Status status = Status::kOk;
  std::vector<Job> jobs;
};

/// Writes a StatResponse's bytes one record at a time, so a server lists
/// its table without first copying it into a StatResponse.
class StatWriter {
 public:
  /// `count` records must follow.
  StatWriter(Status status, uint32_t count);
  void add(const Job& job) { encode_job(w_, job); }
  sim::Payload finish() { return w_.take(); }

 private:
  net::Writer w_;
};

struct DeleteRequest {
  JobId job_id = kInvalidJob;
};
struct SimpleResponse {
  Status status = Status::kOk;
};

struct SignalRequest {
  JobId job_id = kInvalidJob;
  int32_t signal = 15;  ///< SIGTERM by default
};

struct HoldRequest {
  JobId job_id = kInvalidJob;
};
struct ReleaseRequest {
  JobId job_id = kInvalidJob;
};

struct DumpStateRequest {};
struct DumpStateResponse {
  Status status = Status::kOk;
  sim::Payload state;
};
struct LoadStateRequest {
  sim::Payload state;
};

struct MomLaunchRequest {
  Job job;                 ///< full record (mom needs spec + id)
  sim::HostId server_host = sim::kInvalidHost;  ///< requesting head
};
struct MomLaunchResponse {
  Status status = Status::kOk;
  bool emulated = false;   ///< launch attached to an existing instance
};

struct MomKillRequest {
  JobId job_id = kInvalidJob;
  sim::HostId server_host = sim::kInvalidHost;
  /// Preemption kill: terminate the instance without emitting a completion
  /// report. The requeued job must not be completed by its own death echo;
  /// every head already knows about the requeue from the ordered stream.
  bool quiet = false;
};

struct PreemptRequest {
  JobId job_id = kInvalidJob;
};

struct MomEmuCompleteRequest {
  JobId job_id = kInvalidJob;
  int32_t exit_code = 0;
};

struct MomPingRequest {
  sim::HostId server_host = sim::kInvalidHost;
  uint64_t seq = 0;  ///< heartbeat sequence number (echoed back)
};
struct MomPingResponse {
  Status status = Status::kOk;
  uint64_t seq = 0;
  uint32_t running_jobs = 0;  ///< instances currently on this mom
};

struct JobReport {
  JobId job_id = kInvalidJob;
  int32_t exit_code = 0;
  bool cancelled = false;
  sim::Time start_time{0};
  sim::Time end_time{0};
  sim::HostId mom_host = sim::kInvalidHost;
};

// -- framing -------------------------------------------------------------
// Request payload: [u8 op][body]. Response payload: op-specific body.

Op peek_op(const sim::Payload& buf);

sim::Payload encode_request(const SubmitRequest&);
sim::Payload encode_request(const StatRequest&);
sim::Payload encode_request(const DeleteRequest&);
sim::Payload encode_request(const SignalRequest&);
sim::Payload encode_request(const HoldRequest&);
sim::Payload encode_request(const ReleaseRequest&);
sim::Payload encode_request(const PreemptRequest&);
sim::Payload encode_request(const DumpStateRequest&);
sim::Payload encode_request(const LoadStateRequest&);
sim::Payload encode_request(const MomLaunchRequest&);
sim::Payload encode_request(const MomKillRequest&);
sim::Payload encode_request(const MomEmuCompleteRequest&);
sim::Payload encode_request(const MomPingRequest&);
sim::Payload encode_request(const JobReport&);

SubmitRequest decode_submit(const sim::Payload&);
StatRequest decode_stat(const sim::Payload&);
DeleteRequest decode_delete(const sim::Payload&);
SignalRequest decode_signal(const sim::Payload&);
HoldRequest decode_hold(const sim::Payload&);
ReleaseRequest decode_release(const sim::Payload&);
PreemptRequest decode_preempt(const sim::Payload&);
LoadStateRequest decode_load_state(const sim::Payload&);
MomLaunchRequest decode_mom_launch(const sim::Payload&);
MomKillRequest decode_mom_kill(const sim::Payload&);
MomEmuCompleteRequest decode_mom_emu_complete(const sim::Payload&);
MomPingRequest decode_mom_ping(const sim::Payload&);
JobReport decode_job_report(const sim::Payload&);

sim::Payload encode_response(const SubmitResponse&);
sim::Payload encode_response(const StatResponse&);
sim::Payload encode_response(const SimpleResponse&);
sim::Payload encode_response(const DumpStateResponse&);
sim::Payload encode_response(const MomLaunchResponse&);
sim::Payload encode_response(const MomPingResponse&);

SubmitResponse decode_submit_response(const sim::Payload&);
StatResponse decode_stat_response(const sim::Payload&);
SimpleResponse decode_simple_response(const sim::Payload&);
DumpStateResponse decode_dump_state_response(const sim::Payload&);
MomLaunchResponse decode_mom_launch_response(const sim::Payload&);
MomPingResponse decode_mom_ping_response(const sim::Payload&);

}  // namespace pbs
