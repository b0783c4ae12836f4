// The JOSHUA server: the external-replication interceptor running on each
// head node (paper Figure 8/9).
//
// It accepts PBS-compatible user commands (jsub/jstat/jdel), multicasts
// them AGREED through the group communication system, executes each
// delivered command against the *local*, unmodified PBS server, and relays
// the output back to the client from the head the client contacted --
// exactly-once output, as the paper requires.
//
// It also arbitrates the jmutex/jdone distributed mutual exclusion the
// mom-side prologue uses so a job requested by every head starts exactly
// once, and serves state transfer to joining heads:
//
//   * TransferMode::kReplay -- what JOSHUA v0.1 did: replay the (compacted)
//     user-command log against the joiner's fresh PBS server. Faithful to
//     the paper, including its documented limitation: jhold/jrls are
//     rejected in this mode because replay cannot reproduce hold state
//     consistently.
//   * TransferMode::kSnapshot -- the paper's future-work "unified state
//     description": a direct PBS state snapshot; supports hold/release.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "gcs/group_member.h"
#include "joshua/protocol.h"
#include "net/rpc.h"
#include "pbs/protocol.h"
#include "pbs/server.h"

namespace joshua {

enum class TransferMode : uint8_t { kReplay = 0, kSnapshot = 1 };

/// This server's slice of a federated job-id space. The federation layer
/// (src/fed/) carves the id space into contiguous blocks of `id_stride` ids
/// per shard; shard s owns (s*stride, (s+1)*stride]. count <= 1 means
/// unsharded -- every id is owned, today's single-group behaviour.
struct ShardIdentity {
  uint32_t shard = 0;
  uint32_t count = 1;
  pbs::JobId id_stride = 0;
  bool sharded() const { return count > 1 && id_stride != 0; }
  bool owns(pbs::JobId id) const {
    if (!sharded()) return true;
    return id != pbs::kInvalidJob && (id - 1) / id_stride == shard;
  }
};

struct JoshuaConfig {
  sim::Port client_port = 17000;  ///< jsub/jstat/jdel + jmutex/jdone RPCs
  sim::Port pbs_port = 15001;     ///< the colocated PBS server
  gcs::GroupConfig group;         ///< peers = all head-node hosts
  TransferMode transfer = TransferMode::kReplay;

  /// Rejoin automatically after being excluded from a view (spurious
  /// suspicion). Off by default: the paper treats exclusion as shutdown.
  bool auto_rejoin = false;
  sim::Duration rejoin_delay = sim::seconds(2);

  /// Federation: the shard this server belongs to. Commands naming a job id
  /// outside the shard's block are rejected with kUnknownJob -- the router
  /// never sends them here, so one arriving means a misrouted direct client.
  ShardIdentity shard;
  /// Serve jstat from the local replica without entering the ordered path.
  /// Reads commute with reads, and within one shard every replica holds the
  /// same totally-ordered prefix, so a member's answer is a consistent
  /// (possibly slightly stale) snapshot. Off by default: the paper orders
  /// every command, and the default config must stay behaviour-identical.
  bool jstat_local = false;

  // CPU cost model.
  sim::Duration cmd_proc = sim::msec(6);
  sim::Duration exec_proc = sim::msec(8);
  sim::Duration relay_proc = sim::msec(4);

  sim::Duration local_rpc_timeout = sim::seconds(30);
};

JoshuaConfig joshua_config_from(const sim::Calibration& cal,
                                std::vector<sim::HostId> head_hosts);

class Server : public net::RpcNode {
 public:
  /// `local_pbs` is the colocated PBS server; it may be null only in
  /// kReplay mode (snapshot transfer needs direct state access, modelling
  /// the SSS-style state interface).
  Server(sim::Network& net, sim::HostId host, JoshuaConfig config,
         pbs::Server* local_pbs);

  /// Join the active head group (start of service).
  void start();
  /// Leave the group ("handled as a forced failure by causing the JOSHUA
  /// server to shutdown via a signal", Section 4).
  void shutdown();

  bool in_service() const { return group_.is_member(); }
  /// True while a replay-mode state transfer is still being applied; the
  /// local job table lags the group until this drops back to false.
  bool replaying() const { return replaying_; }
  const gcs::GroupMember& group() const { return group_; }
  gcs::GroupMember& group() { return group_; }
  const JoshuaConfig& config() const { return config_; }

  /// "joshua.*" counters, registered in the ctor; own() is this head's count.
  struct Stats {
    telemetry::Counter commands_intercepted;
    telemetry::Counter commands_executed;
    telemetry::Counter replies_relayed;
    telemetry::Counter mutex_requests;
    telemetry::Counter mutex_grants;   ///< jmutex answered "won"
    telemetry::Counter mutex_denials;  ///< jmutex answered "lost"
    telemetry::Counter mutex_revokes;  ///< ordered node revocations applied
    telemetry::Counter dup_completions_suppressed;  ///< extra MutexDones
    telemetry::Counter ordered_completions;  ///< applied from MutexDone
    telemetry::Counter preempts_ordered;     ///< ordered preemptions applied
    telemetry::Counter state_transfers_served;
    telemetry::Counter replays_applied;
    /// "joshua.replay_divergence.<host>": replayed commands whose local PBS
    /// response disagreed with what the replayed log implies. Any nonzero
    /// value means this head's rebuilt state drifted from the group.
    telemetry::Counter replay_divergence;
    telemetry::Counter reports_rejected;  ///< mom reports filtered out
    /// "pbs.jstat_local": stat queries served from the local replica, the
    /// read path that never pays for total order.
    telemetry::Counter jstat_local_served;
    telemetry::Counter shard_rejects;  ///< commands naming out-of-shard ids
  };
  const Stats& stats() const { return stats_; }

  // net::RpcNode:
  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override;
  void on_crash() override;

 private:
  // Client-command path.
  void handle_client_command(sim::Payload request, sim::Endpoint from,
                             uint64_t rpc_id);
  void apply_group_command(GroupCommand cmd);
  void finish_local_apply(const GroupCommand& cmd,
                          std::optional<sim::Payload> response);

  // jmutex/jdone path.
  void handle_jmutex(const JMutexRequest& req, sim::Endpoint from,
                     uint64_t rpc_id);
  void handle_jdone(const JDoneRequest& req, sim::Endpoint from,
                    uint64_t rpc_id);
  void apply_mutex_req(const GroupMutexReq& req);
  void apply_mutex_done(const GroupMutexDone& done);
  void apply_mutex_revoke(const GroupMutexRevoke& rev);
  void apply_group_preempt(const GroupPreempt& pre);
  void answer_mutex_waiters(pbs::JobId job);
  /// pbs::Server::accept_report hook: ordered duplicate-completion
  /// suppression for replicated jobs.
  bool filter_report(const pbs::JobReport& report);

  // gcs callbacks.
  void on_view(const gcs::View& view);
  void on_deliver(const gcs::Delivered& msg);
  sim::Payload get_state();
  void install_state(const sim::Payload& state);
  /// Serialize / install the jmutex arbitration table that rides with every
  /// state transfer (claims, terminal jobs, revoked moms).
  sim::Payload export_mutex_table() const;
  void install_mutex_table(const sim::Payload& blob);

  // Replay-mode machinery.
  void replay_next();
  void log_command(const GroupCommand& cmd);
  void note_command_result(const GroupCommand& cmd,
                           const sim::Payload& response);

  sim::Endpoint local_pbs_endpoint() const {
    return {host_id(), config_.pbs_port};
  }

  JoshuaConfig config_;
  pbs::Server* local_pbs_;
  gcs::GroupMember group_;

  uint64_t next_cmd_seq_ = 1;
  /// Replies owed to clients, keyed by our own cmd_seq.
  struct PendingReply {
    sim::Endpoint client;
    uint64_t rpc_id = 0;
    pbs::Op op = pbs::Op::kStat;
    sim::Time intercepted{0};  ///< when the command entered this head
  };
  std::map<uint64_t, PendingReply> pending_replies_;

  /// jmutex arbitration, generalised from "exactly once" to "exactly r".
  struct MutexState {
    /// Delivered claims, one per mom, in total order: (mom, claiming head).
    /// The first max_real distinct moms win their launch slot.
    std::vector<std::pair<sim::HostId, gcs::MemberId>> claims;
    /// Replication factor, fixed by the first delivered claim so every head
    /// arbitrates with the same r even if requesters disagree.
    uint32_t max_real = 1;
    bool done = false;
    sim::HostId winner_mom = sim::kInvalidHost;  ///< mom of the first jdone
    int32_t exit_code = 0;
  };
  static bool mutex_winner(const MutexState& state, sim::HostId mom,
                           gcs::MemberId head);
  static bool mutex_answerable(const MutexState& state, sim::HostId mom);
  std::map<pbs::JobId, MutexState> mutexes_;
  struct MutexWaiter {
    gcs::MemberId head;
    sim::HostId mom;
    sim::Endpoint from;
    uint64_t rpc_id;
    sim::Time asked{0};  ///< when the jmutex request arrived
  };
  std::multimap<pbs::JobId, MutexWaiter> mutex_waiters_;
  /// (job, mom) pairs whose claim this head has already multicast.
  std::set<std::pair<pbs::JobId, sim::HostId>> mutex_cast_;
  /// Moms whose failure has already been revoked through the group; damps
  /// the revoke storm when every head's detector fires. Re-armed when a
  /// fresh claim from the mom is delivered (it came back).
  std::set<sim::HostId> revoked_moms_;

  /// Replay-mode command log: request + the job id it produced/affected,
  /// compacted as jobs reach terminal state.
  struct LogEntry {
    sim::Payload request;
    pbs::JobId job = pbs::kInvalidJob;
  };
  std::vector<LogEntry> command_log_;
  std::set<pbs::JobId> terminal_jobs_;
  /// Highest job id any ordered submit produced (learned from responses or a
  /// state transfer). Served as CommandLog::next_job_id so joiners never
  /// reuse ids whose jobs the compaction dropped.
  pbs::JobId max_job_id_seen_ = pbs::kInvalidJob;

  bool replaying_ = false;
  std::deque<sim::Payload> replay_queue_;
  std::deque<GroupCommand> held_commands_;

  Stats stats_;

  // Telemetry beyond stats_ ("joshua.*" histograms; registered in the ctor).
  telemetry::Histogram m_intercept_latency_;  ///< intercept -> client reply
  telemetry::Histogram m_jstat_local_latency_;  ///< local-read intercept->reply
  telemetry::Histogram m_jmutex_wait_;        ///< jmutex arrival -> grant
  uint16_t tc_command_ = 0;  ///< trace category "joshua.command"
  uint16_t tc_replay_ = 0;   ///< trace category "joshua.replay"
  uint16_t tc_jview_ = 0;    ///< trace category "joshua.view"
  uint16_t tc_revoke_ = 0;   ///< trace category "joshua.mutex_revoke"
};

}  // namespace joshua
