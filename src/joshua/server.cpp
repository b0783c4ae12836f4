#include "joshua/server.h"

#include <algorithm>

#include "sim/calibration.h"
#include "util/logging.h"

namespace joshua {

namespace {
/// An error response shaped for the op the client sent, so its decoder
/// always understands the rejection.
sim::Payload error_response(pbs::Op op, pbs::Status status) {
  switch (op) {
    case pbs::Op::kSubmit:
      return pbs::encode_response(pbs::SubmitResponse{status, pbs::kInvalidJob});
    case pbs::Op::kStat:
      return pbs::encode_response(pbs::StatResponse{status, {}});
    default:
      return pbs::encode_response(pbs::SimpleResponse{status});
  }
}

/// Did a replayed command produce the response the log implies it must?
/// The compacted log only carries commands about live jobs, so a failure
/// status here means the joiner's rebuilt PBS state diverged from the
/// group's (the paper's replay-consistency hazard).
bool replay_response_ok(const sim::Payload& request,
                        const sim::Payload& response) {
  try {
    switch (pbs::peek_op(request)) {
      case pbs::Op::kSubmit:
        return pbs::decode_submit_response(response).status ==
               pbs::Status::kOk;
      case pbs::Op::kDelete:
      case pbs::Op::kHold:
      case pbs::Op::kRelease:
        return pbs::decode_simple_response(response).status == pbs::Status::kOk;
      default:
        return true;
    }
  } catch (const net::WireError&) {
    return false;
  }
}
}  // namespace

JoshuaConfig joshua_config_from(const sim::Calibration& cal,
                                std::vector<sim::HostId> head_hosts) {
  JoshuaConfig cfg;
  cfg.group = gcs::group_config_from(cal);
  cfg.group.group_name = "joshua";
  cfg.group.peers = std::move(head_hosts);
  cfg.cmd_proc = cal.joshua_cmd_proc;
  cfg.exec_proc = cal.joshua_exec_proc;
  cfg.relay_proc = cal.joshua_relay_proc;
  return cfg;
}

Server::Server(sim::Network& net, sim::HostId host, JoshuaConfig config,
               pbs::Server* local_pbs)
    : net::RpcNode(net, host, config.client_port,
                   "joshua@" + net.host(host).name()),
      config_(std::move(config)),
      local_pbs_(local_pbs),
      group_(net, host, config_.group,
             gcs::GroupCallbacks{
                 [this](const gcs::View& v) { on_view(v); },
                 [this](const gcs::Delivered& d) { on_deliver(d); },
                 [this] { return get_state(); },
                 [this](const sim::Payload& s) { install_state(s); },
             }) {
  if (local_pbs_ == nullptr && config_.transfer == TransferMode::kSnapshot) {
    throw std::invalid_argument(
        "joshua::Server: snapshot transfer needs the colocated PBS server");
  }
  if (local_pbs_ != nullptr) {
    // Chain onto the PBS completion callback for command-log compaction.
    auto previous = std::move(local_pbs_->on_job_complete);
    local_pbs_->on_job_complete = [this, previous](const pbs::Job& job) {
      terminal_jobs_.insert(job.id);
      if (previous) previous(job);
    };
    // Ordered duplicate-completion suppression: with r-way replication the
    // mom reports only confirm what the ordered MutexDone already decided.
    local_pbs_->accept_report = [this](const pbs::JobReport& report) {
      return filter_report(report);
    };
    // Compute-node failure -> ordered mutex revocation, so every head
    // releases the dead mom's claims at the same point in the stream.
    auto prev_failed = std::move(local_pbs_->on_node_failed);
    local_pbs_->on_node_failed = [this, prev_failed](sim::HostId mom) {
      // One revoke per detected failure across the whole group: the first
      // delivered revoke arms the damping set on every head before their
      // own detectors fire, so late detections stay local.
      if (group_.is_member() && revoked_moms_.insert(mom).second) {
        group_.multicast(encode_group(GroupMutexRevoke{mom}),
                         gcs::Delivery::kAgreed);
      }
      if (prev_failed) prev_failed(mom);
    };
    // Preemption decisions go through the ordered stream: every head's pure
    // policy picks the same victim from the same replicated state, so each
    // head multicasts it once (the PBS server damps re-emission) and the
    // first delivery requeues the victim everywhere at the same point.
    // Later deliveries are no-ops (apply_preempt ignores non-running jobs).
    local_pbs_->request_preempt = [this](pbs::JobId victim) {
      if (!group_.is_member()) return;
      group_.multicast(encode_group(GroupPreempt{victim}),
                       gcs::Delivery::kAgreed);
    };
  }
  telemetry::Hub& hub = net.sim().telemetry();
  telemetry::Registry& m = hub.metrics();
  stats_.commands_intercepted = m.counter("joshua.commands_intercepted");
  stats_.commands_executed = m.counter("joshua.commands_executed");
  stats_.replies_relayed = m.counter("joshua.replies_relayed");
  stats_.mutex_requests = m.counter("joshua.mutex_requests");
  stats_.mutex_grants = m.counter("joshua.mutex_grants");
  stats_.mutex_denials = m.counter("joshua.mutex_denials");
  stats_.mutex_revokes = m.counter("joshua.mutex_revokes");
  stats_.dup_completions_suppressed =
      m.counter("joshua.dup_completions_suppressed");
  stats_.ordered_completions = m.counter("joshua.ordered_completions");
  stats_.preempts_ordered = m.counter("joshua.preempts_ordered");
  stats_.state_transfers_served = m.counter("joshua.state_transfers_served");
  stats_.replays_applied = m.counter("joshua.replays_applied");
  stats_.replay_divergence =
      m.counter("joshua.replay_divergence." + net.host(host).name());
  stats_.reports_rejected = m.counter("joshua.reports_rejected");
  stats_.jstat_local_served = m.counter("pbs.jstat_local");
  stats_.shard_rejects = m.counter("joshua.shard_rejects");
  m_intercept_latency_ = m.histogram("joshua.intercept_to_reply_us");
  m_jstat_local_latency_ = m.histogram("joshua.jstat_local_us");
  m_jmutex_wait_ = m.histogram("joshua.jmutex_wait_us");
  tc_command_ = hub.trace().intern("joshua.command");
  tc_replay_ = hub.trace().intern("joshua.replay");
  tc_jview_ = hub.trace().intern("joshua.view");
  tc_revoke_ = hub.trace().intern("joshua.mutex_revoke");
}

void Server::start() { group_.join(); }

void Server::shutdown() {
  // Fail outstanding clients fast so they fail over to another head.
  for (auto& [seq, reply] : pending_replies_) {
    (void)seq;
    respond(reply.client, reply.rpc_id,
            error_response(reply.op, pbs::Status::kServerBusy));
  }
  pending_replies_.clear();
  group_.leave();
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

void Server::on_request(sim::Payload request, sim::Endpoint from,
                        uint64_t rpc_id) {
  if (request.empty()) return;
  uint8_t tag = request[0];
  if (tag == static_cast<uint8_t>(PluginOp::kJMutex) ||
      tag == static_cast<uint8_t>(PluginOp::kJDone)) {
    execute(config_.cmd_proc, [this, request = std::move(request), from,
                               rpc_id, tag] {
      try {
        if (tag == static_cast<uint8_t>(PluginOp::kJMutex)) {
          handle_jmutex(decode_jmutex(request), from, rpc_id);
        } else {
          handle_jdone(decode_jdone(request), from, rpc_id);
        }
      } catch (const net::WireError& e) {
        JLOG(kWarn, "joshua") << name() << ": bad plugin request: " << e.what();
      }
    });
    return;
  }
  execute(config_.cmd_proc, [this, request = std::move(request), from,
                             rpc_id]() mutable {
    handle_client_command(std::move(request), from, rpc_id);
  });
}

void Server::handle_client_command(sim::Payload request, sim::Endpoint from,
                                   uint64_t rpc_id) {
  pbs::Op op;
  try {
    op = pbs::peek_op(request);
  } catch (const net::WireError&) {
    return;
  }
  auto reject = [&](pbs::Status status) {
    respond(from, rpc_id, error_response(op, status));
  };
  switch (op) {
    case pbs::Op::kSubmit:
    case pbs::Op::kStat:
    case pbs::Op::kDelete:
      break;
    case pbs::Op::kHold:
    case pbs::Op::kRelease:
      // Replay-based state transfer cannot reproduce hold state at a
      // joining head (Section 4): JOSHUA v0.1 rejects these. The snapshot
      // transfer mode lifts the restriction.
      if (config_.transfer == TransferMode::kReplay) {
        reject(pbs::Status::kUnsupported);
        return;
      }
      break;
    default:
      // No qsig equivalent etc.: "The original PBS command may be executed
      // independently of JOSHUA."
      reject(pbs::Status::kUnsupported);
      return;
  }
  // Federation: commands naming a job id outside this shard's block can
  // never succeed here (the id was issued by another shard's replicas), so
  // reject them up front instead of ordering a guaranteed failure.
  if (config_.shard.sharded()) {
    pbs::JobId target = pbs::kInvalidJob;
    try {
      switch (op) {
        case pbs::Op::kStat:
          target = pbs::decode_stat(request).job_id;
          break;
        case pbs::Op::kDelete:
          target = pbs::decode_delete(request).job_id;
          break;
        case pbs::Op::kHold:
          target = pbs::decode_hold(request).job_id;
          break;
        case pbs::Op::kRelease:
          target = pbs::decode_release(request).job_id;
          break;
        default:
          break;
      }
    } catch (const net::WireError&) {
      return;
    }
    if (target != pbs::kInvalidJob && !config_.shard.owns(target)) {
      stats_.shard_rejects.add(1);
      reject(pbs::Status::kUnknownJob);
      return;
    }
  }
  if (!group_.is_member()) {
    reject(pbs::Status::kServerBusy);
    return;
  }
  // Local-read fast path: a member's replica holds the same totally-ordered
  // prefix as every peer, so a stat can be answered off the colocated PBS
  // without a group round -- unless a replay transfer is still rebuilding
  // the table, in which case the ordered path (which holds commands until
  // the replay drains) stays authoritative.
  if (op == pbs::Op::kStat && config_.jstat_local && local_pbs_ != nullptr &&
      !replaying_) {
    stats_.jstat_local_served.add(1);
    sim::Time intercepted = sim().now();
    net::CallOptions options;
    options.timeout = config_.local_rpc_timeout;
    call(local_pbs_endpoint(), std::move(request),
         [this, from, rpc_id, intercepted](std::optional<sim::Payload> resp) {
           if (!resp.has_value()) {
             respond(from, rpc_id,
                     error_response(pbs::Op::kStat, pbs::Status::kInternal));
             return;
           }
           execute(config_.relay_proc,
                   [this, from, rpc_id, intercepted, r = std::move(*resp)] {
                     m_jstat_local_latency_.record(
                         (sim().now() - intercepted).us);
                     respond(from, rpc_id, r);
                   });
         },
         options);
    return;
  }
  stats_.commands_intercepted.add(1);
  GroupCommand cmd;
  cmd.origin = group_.id();
  cmd.cmd_seq = next_cmd_seq_++;
  cmd.pbs_request = std::move(request);
  pending_replies_[cmd.cmd_seq] = PendingReply{from, rpc_id, op, sim().now()};
  group_.multicast(encode_group(cmd), gcs::Delivery::kAgreed);
}

// ---------------------------------------------------------------------------
// Group delivery
// ---------------------------------------------------------------------------

void Server::on_deliver(const gcs::Delivered& msg) {
  GroupOp op;
  try {
    op = peek_group_op(msg.payload);
  } catch (const net::WireError&) {
    return;
  }
  try {
    switch (op) {
      case GroupOp::kCommand: {
        GroupCommand cmd = decode_group_command(msg.payload);
        if (replaying_) {
          held_commands_.push_back(std::move(cmd));
        } else {
          apply_group_command(std::move(cmd));
        }
        break;
      }
      case GroupOp::kMutexReq:
        apply_mutex_req(decode_group_mutex_req(msg.payload));
        break;
      case GroupOp::kMutexDone:
        apply_mutex_done(decode_group_mutex_done(msg.payload));
        break;
      case GroupOp::kMutexRevoke:
        apply_mutex_revoke(decode_group_mutex_revoke(msg.payload));
        break;
      case GroupOp::kPreempt:
        apply_group_preempt(decode_group_preempt(msg.payload));
        break;
    }
  } catch (const net::WireError& e) {
    JLOG(kWarn, "joshua") << name() << ": bad group message: " << e.what();
  }
}

void Server::apply_group_command(GroupCommand cmd) {
  stats_.commands_executed.add(1);
  log_command(cmd);
  execute(config_.exec_proc, [this, cmd = std::move(cmd)] {
    net::CallOptions options;
    options.timeout = config_.local_rpc_timeout;
    call(local_pbs_endpoint(), cmd.pbs_request,
         [this, cmd](std::optional<sim::Payload> response) {
           finish_local_apply(cmd, std::move(response));
         },
         options);
  });
}

void Server::finish_local_apply(const GroupCommand& cmd,
                                std::optional<sim::Payload> response) {
  if (response.has_value()) note_command_result(cmd, *response);
  if (cmd.origin != group_.id()) return;
  auto it = pending_replies_.find(cmd.cmd_seq);
  if (it == pending_replies_.end()) return;
  PendingReply reply = it->second;
  pending_replies_.erase(it);
  if (!response.has_value()) {
    respond(reply.client, reply.rpc_id,
            error_response(reply.op, pbs::Status::kInternal));
    return;
  }
  stats_.replies_relayed.add(1);
  execute(config_.relay_proc,
          [this, reply, seq = cmd.cmd_seq, resp = std::move(*response)] {
            // The paper's client-visible latency: command intercepted here,
            // totally ordered, applied to the local PBS, output relayed.
            int64_t now_us = sim().now().us;
            m_intercept_latency_.record(now_us - reply.intercepted.us);
            sim().telemetry().trace().complete(
                reply.intercepted.us, now_us, host_id(), tc_command_, seq,
                static_cast<uint64_t>(reply.op));
            respond(reply.client, reply.rpc_id, resp);
          });
}

// ---------------------------------------------------------------------------
// Command log (replay-mode state transfer)
// ---------------------------------------------------------------------------

void Server::log_command(const GroupCommand& cmd) {
  pbs::Op op;
  try {
    op = pbs::peek_op(cmd.pbs_request);
  } catch (const net::WireError&) {
    return;
  }
  if (op != pbs::Op::kSubmit && op != pbs::Op::kDelete &&
      op != pbs::Op::kHold && op != pbs::Op::kRelease) {
    return;  // reads do not change state
  }
  LogEntry entry;
  entry.request = cmd.pbs_request;
  if (op != pbs::Op::kSubmit) {
    try {
      switch (op) {
        case pbs::Op::kDelete:
          entry.job = pbs::decode_delete(cmd.pbs_request).job_id;
          break;
        case pbs::Op::kHold:
          entry.job = pbs::decode_hold(cmd.pbs_request).job_id;
          break;
        case pbs::Op::kRelease:
          entry.job = pbs::decode_release(cmd.pbs_request).job_id;
          break;
        default:
          break;
      }
    } catch (const net::WireError&) {
    }
  }
  command_log_.push_back(std::move(entry));
}

void Server::note_command_result(const GroupCommand& cmd,
                                 const sim::Payload& response) {
  pbs::Op op;
  try {
    op = pbs::peek_op(cmd.pbs_request);
  } catch (const net::WireError&) {
    return;
  }
  if (op == pbs::Op::kSubmit) {
    try {
      pbs::SubmitResponse sub = pbs::decode_submit_response(response);
      if (sub.status == pbs::Status::kOk) {
        // An array submit owns [job_id, job_id + count); track the top id.
        pbs::JobId top = sub.job_id + (sub.count > 1 ? sub.count - 1 : 0);
        if (max_job_id_seen_ == pbs::kInvalidJob || top > max_job_id_seen_)
          max_job_id_seen_ = top;
        // Attach the job id to the newest submit entry lacking one.
        for (auto it = command_log_.rbegin(); it != command_log_.rend(); ++it) {
          if (it->job == pbs::kInvalidJob &&
              pbs::peek_op(it->request) == pbs::Op::kSubmit) {
            it->job = sub.job_id;
            break;
          }
        }
      }
    } catch (const net::WireError&) {
    }
  } else if (op == pbs::Op::kDelete) {
    try {
      pbs::DeleteRequest del = pbs::decode_delete(cmd.pbs_request);
      terminal_jobs_.insert(del.job_id);
    } catch (const net::WireError&) {
    }
  }
}

sim::Payload Server::export_mutex_table() const {
  // The arbitration table is replicated decision state, same as the job
  // queue: a joiner must arbitrate stale relaunches (its replay rebuilds
  // running jobs as queued) against the claims the group already delivered,
  // or it grants a second real execution on a fresh mom.
  MutexTable table;
  for (const auto& [job, state] : mutexes_) {
    MutexEntry e;
    e.job = job;
    e.max_real = state.max_real;
    e.done = state.done;
    e.winner_mom = state.winner_mom;
    e.exit_code = state.exit_code;
    for (const auto& [mom, head] : state.claims)
      e.claims.push_back(MutexClaim{mom, head});
    table.entries.push_back(std::move(e));
  }
  table.terminal.assign(terminal_jobs_.begin(), terminal_jobs_.end());
  table.revoked.assign(revoked_moms_.begin(), revoked_moms_.end());
  return encode_mutex_table(table);
}

sim::Payload Server::get_state() {
  stats_.state_transfers_served.add(1);
  if (config_.transfer == TransferMode::kSnapshot) {
    return wrap_transfer(TransferKind::kSnapshot, local_pbs_->dump_state_blob(),
                         export_mutex_table());
  }
  // Compacted command log: drop commands about jobs that already reached a
  // terminal state (replaying them would re-run finished work). Submits are
  // rewritten to carry their original job id so the joiner rebuilds an
  // identical queue.
  CommandLog log;
  for (const LogEntry& entry : command_log_) {
    try {
      if (pbs::peek_op(entry.request) == pbs::Op::kSubmit &&
          entry.job != pbs::kInvalidJob) {
        pbs::SubmitRequest submit = pbs::decode_submit(entry.request);
        uint32_t count = submit.spec.submit_count();
        if (count == 1) {
          if (terminal_jobs_.count(entry.job)) continue;  // compacted away
          submit.forced_id = entry.job;
          log.requests.push_back(pbs::encode_request(submit));
          continue;
        }
        // Array submit: sub-jobs reach terminal state independently, so the
        // whole entry compacts only once every id in [base, base+count) is
        // terminal. A partially finished array is rewritten as one forced-id
        // member submit per live sub-job (the array's spec plus the index,
        // so the joiner's record equals the donor's) -- replaying the
        // original array would resurrect finished sub-jobs as queued
        // phantoms (and re-execute them, breaking exactly-once).
        for (uint32_t i = 0; i < count; ++i) {
          pbs::JobId sub_id = entry.job + i;
          if (terminal_jobs_.count(sub_id)) continue;
          pbs::SubmitRequest one = submit;
          one.forced_id = sub_id;
          one.spec.array_index = static_cast<int32_t>(i);
          log.requests.push_back(pbs::encode_request(one));
        }
        continue;
      }
    } catch (const net::WireError&) {
    }
    if (entry.job != pbs::kInvalidJob && terminal_jobs_.count(entry.job))
      continue;
    log.requests.push_back(entry.request);
  }
  if (max_job_id_seen_ != pbs::kInvalidJob)
    log.next_job_id = max_job_id_seen_ + 1;
  JLOG(kInfo, "joshua") << name() << ": serving state transfer ("
                        << log.requests.size() << " commands to replay)";
  return wrap_transfer(TransferKind::kReplayLog, encode_command_log(log),
                       export_mutex_table());
}

void Server::install_mutex_table(const sim::Payload& blob) {
  // A joiner's own arbitration state is stale by construction: MutexReq and
  // MutexDone messages delivered while it was out of the view are gone for
  // good, and a retained !done entry would reject the job's completion
  // reports forever. Replace it wholesale with the donor's table, which is
  // consistent with the stream position of the capture -- deliveries after
  // it update joiner and donor identically.
  mutexes_.clear();
  mutex_waiters_.clear();  // the moms' pending RPCs time out and rotate
  mutex_cast_.clear();
  revoked_moms_.clear();
  if (blob.empty()) return;
  MutexTable table;
  try {
    table = decode_mutex_table(blob);
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << name() << ": corrupt mutex table: " << e.what();
    return;
  }
  for (const MutexEntry& e : table.entries) {
    MutexState& state = mutexes_[e.job];
    state.max_real = e.max_real;
    state.done = e.done;
    state.winner_mom = e.winner_mom;
    state.exit_code = e.exit_code;
    for (const MutexClaim& c : e.claims)
      state.claims.emplace_back(c.mom, c.head);
  }
  terminal_jobs_.insert(table.terminal.begin(), table.terminal.end());
  revoked_moms_.insert(table.revoked.begin(), table.revoked.end());
  JLOG(kInfo, "joshua") << name() << ": installed mutex table ("
                        << table.entries.size() << " entries, "
                        << table.terminal.size() << " terminal)";
}

void Server::install_state(const sim::Payload& state) {
  TransferEnvelope env;
  try {
    env = unwrap_transfer(state);
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << name() << ": bad state blob: " << e.what();
    return;
  }
  auto& [kind, body, mutex_blob] = env;
  install_mutex_table(mutex_blob);
  if (kind == TransferKind::kSnapshot) {
    if (local_pbs_ == nullptr) {
      JLOG(kError, "joshua") << name()
                             << ": snapshot received without a PBS handle";
      return;
    }
    try {
      local_pbs_->load_state_blob(body);
      JLOG(kInfo, "joshua") << name() << ": snapshot state installed";
    } catch (const net::WireError& e) {
      JLOG(kError, "joshua") << name() << ": corrupt snapshot: " << e.what();
    }
    return;
  }
  // Replay mode: apply the commands through the service interface, in
  // order, holding any newly delivered commands until the replay finishes.
  // The paper's joiner starts with a freshly installed TORQUE; wipe any
  // stale local state (e.g. the pre-crash queue recovered from disk) first.
  if (local_pbs_ != nullptr) {
    local_pbs_->reset_state();
  } else {
    JLOG(kWarn, "joshua") << name()
                          << ": no PBS handle; stale local jobs may linger";
  }
  try {
    CommandLog log = decode_command_log(body);
    replay_queue_.assign(log.requests.begin(), log.requests.end());
    if (log.next_job_id != 0) {
      // Resume the donor's id sequence even though the compaction dropped
      // the terminal tail; otherwise this head's next submit would reuse an
      // id the group already handed out and the tables would fork.
      if (local_pbs_ != nullptr)
        local_pbs_->bump_next_job_id(log.next_job_id);
      if (max_job_id_seen_ == pbs::kInvalidJob ||
          log.next_job_id - 1 > max_job_id_seen_)
        max_job_id_seen_ = log.next_job_id - 1;
    }
  } catch (const net::WireError& e) {
    JLOG(kError, "joshua") << name() << ": corrupt command log: " << e.what();
    return;
  }
  JLOG(kInfo, "joshua") << name() << ": replaying " << replay_queue_.size()
                        << " commands";
  replaying_ = true;
  if (local_pbs_ != nullptr) local_pbs_->pause_scheduling(true);
  replay_next();
}

void Server::replay_next() {
  if (replay_queue_.empty()) {
    replaying_ = false;
    auto held = std::move(held_commands_);
    held_commands_.clear();
    for (GroupCommand& cmd : held) apply_group_command(std::move(cmd));
    if (local_pbs_ != nullptr) local_pbs_->pause_scheduling(false);
    JLOG(kInfo, "joshua") << name() << ": replay complete";
    return;
  }
  sim::Payload request = std::move(replay_queue_.front());
  replay_queue_.pop_front();
  GroupCommand pseudo;
  pseudo.origin = sim::kInvalidHost;  // nobody awaits a reply
  pseudo.pbs_request = request;
  log_command(pseudo);
  stats_.replays_applied.add(1);
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_replay_,
                                    stats_.replays_applied.own(),
                                    replay_queue_.size());
  net::CallOptions options;
  options.timeout = config_.local_rpc_timeout;
  call(local_pbs_endpoint(), std::move(request),
       [this, pseudo](std::optional<sim::Payload> response) {
         if (!response.has_value() ||
             !replay_response_ok(pseudo.pbs_request, *response)) {
           stats_.replay_divergence.add(1);
           JLOG(kWarn, "joshua")
               << name() << ": replayed command produced a divergent response";
         }
         if (response.has_value()) note_command_result(pseudo, *response);
         replay_next();
       },
       options);
}

// ---------------------------------------------------------------------------
// jmutex / jdone
// ---------------------------------------------------------------------------

bool Server::mutex_winner(const MutexState& state, sim::HostId mom,
                          gcs::MemberId head) {
  if (state.done) return false;
  uint32_t rank = 0;
  for (const auto& claim : state.claims) {
    // A slot is won by one (mom, head) pair: the mom must rank within the
    // first max_real claimants AND this must be the head whose launch
    // attempt claimed for it -- the other heads' attempts emulate, which is
    // the paper's exactly-once start generalised to exactly-r.
    if (claim.first == mom) return rank < state.max_real && claim.second == head;
    ++rank;
  }
  return false;
}

bool Server::mutex_answerable(const MutexState& state, sim::HostId mom) {
  if (state.done) return true;
  for (const auto& claim : state.claims)
    if (claim.first == mom) return true;
  return false;
}

void Server::handle_jmutex(const JMutexRequest& req, sim::Endpoint from,
                           uint64_t rpc_id) {
  stats_.mutex_requests.add(1);
  if (!group_.is_member()) return;  // no answer; the plugin rotates heads
  auto it = mutexes_.find(req.job);
  if (it != mutexes_.end() && mutex_answerable(it->second, req.mom)) {
    bool won = mutex_winner(it->second, req.mom, req.head);
    (won ? stats_.mutex_grants : stats_.mutex_denials).add(1);
    if (won) m_jmutex_wait_.record(0);  // arbitration already settled
    respond(from, rpc_id, encode_jmutex_response(JMutexResponse{won}));
    return;
  }
  mutex_waiters_.emplace(
      req.job, MutexWaiter{req.head, req.mom, from, rpc_id, sim().now()});
  if (mutex_cast_.insert({req.job, req.mom}).second) {
    group_.multicast(
        encode_group(GroupMutexReq{req.job, req.head, req.mom, req.replicas}),
        gcs::Delivery::kAgreed);
  }
}

void Server::handle_jdone(const JDoneRequest& req, sim::Endpoint from,
                          uint64_t rpc_id) {
  // Completion is driven by the ordered MutexDone, so an ack without the
  // multicast would lose the job: stay silent when out of the group and let
  // the plugin rotate to a head that can actually order the release.
  if (!group_.is_member()) return;
  respond(from, rpc_id, sim::Payload{});
  group_.multicast(encode_group(GroupMutexDone{req.job, req.exit_code,
                                               group_.id(), req.mom}),
                   gcs::Delivery::kAgreed);
}

void Server::apply_mutex_req(const GroupMutexReq& req) {
  MutexState& state = mutexes_[req.job];
  // The first delivered claim fixes r for everyone; delivery order is the
  // same at every head, so every head pins the same value.
  if (state.claims.empty() && !state.done)
    state.max_real = std::max(1u, req.replicas);
  bool known = false;
  for (const auto& claim : state.claims)
    if (claim.first == req.mom) known = true;
  if (!known) state.claims.emplace_back(req.mom, req.head);
  // A fresh claim means the mom is (back) in service: re-arm revocation,
  // and return the node to service in the local PBS. The up-transition
  // rides the ordered stream (mirroring note_node_failed in the revoke
  // apply), so every head's node table converges even with the heartbeat
  // detector disabled -- a head that never crashes would otherwise keep
  // the node down forever and stop scheduling onto it.
  revoked_moms_.erase(req.mom);
  if (local_pbs_ != nullptr) local_pbs_->note_node_recovered(req.mom);
  answer_mutex_waiters(req.job);
}

void Server::apply_mutex_done(const GroupMutexDone& done) {
  MutexState& state = mutexes_[done.job];
  if (state.done) {
    // A losing replica that really ran (it won a slot) also sends jdone;
    // only the first one in total order decides the job.
    stats_.dup_completions_suppressed.add(1);
    return;
  }
  state.done = true;
  state.exit_code = done.exit_code;
  state.winner_mom = done.mom;
  terminal_jobs_.insert(done.job);
  answer_mutex_waiters(done.job);
  // Ordered completion: apply the result to the local PBS here, at the same
  // point of the command stream on every head. The winner's own report then
  // only confirms (and survives the winner dying right after jdone).
  // The injection defers through the same exec_proc stage as ordered
  // commands (apply_group_command): local-apply RPCs leave in delivery
  // order and loopback latency is fixed, so a completion delivered right
  // behind a command (routine once ack cuts coalesce) cannot overtake its
  // apply at the colocated PBS.
  if (local_pbs_ != nullptr) {
    stats_.ordered_completions.add(1);
    execute(config_.exec_proc, [this, done] {
      pbs::JobReport report;
      report.job_id = done.job;
      report.exit_code = done.exit_code;
      report.mom_host = done.mom;
      auto job = local_pbs_->find_job(done.job);
      report.cancelled = job.has_value() ? job->cancelled : false;
      net::CallOptions options;
      options.timeout = config_.local_rpc_timeout;
      call(local_pbs_endpoint(), pbs::encode_request(report),
           [](std::optional<sim::Payload>) {}, options);
    });
  }
}

void Server::apply_mutex_revoke(const GroupMutexRevoke& rev) {
  stats_.mutex_revokes.add(1);
  revoked_moms_.insert(rev.mom);
  size_t released = 0;
  for (auto& [job, state] : mutexes_) {
    if (state.done) continue;
    auto is_dead = [&](const std::pair<sim::HostId, gcs::MemberId>& claim) {
      return claim.first == rev.mom;
    };
    auto cut = std::remove_if(state.claims.begin(), state.claims.end(),
                              is_dead);
    if (cut != state.claims.end()) {
      state.claims.erase(cut, state.claims.end());
      ++released;
    }
    (void)job;
  }
  // Forget the dead mom's multicast dedup entries too, so a relaunched
  // replica's fresh claim actually goes out.
  for (auto it = mutex_cast_.begin(); it != mutex_cast_.end();) {
    if (it->second == rev.mom)
      it = mutex_cast_.erase(it);
    else
      ++it;
  }
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_revoke_,
                                    rev.mom, released);
  JLOG(kInfo, "joshua") << name() << ": revoked " << released
                        << " claim(s) of failed mom " << rev.mom;
  // Converge the local node table with the group's decision: mark the node
  // down, drop its replicas and requeue jobs left without one. Idempotent,
  // so the head whose detector triggered the revoke is unaffected.
  if (local_pbs_ != nullptr) local_pbs_->note_node_failed(rev.mom);
}

void Server::apply_group_preempt(const GroupPreempt& pre) {
  // Scrub the victim's arbitration state before requeueing it: the quiet
  // kills erase the mom-side instances, so the relaunch must arbitrate from
  // scratch. Pending waiters are answered "lost" (their launch attempt is
  // moot -- the job is back in the queue); the dedup entries are dropped so
  // the relaunch's fresh claims actually go out.
  auto [begin, end] = mutex_waiters_.equal_range(pre.job);
  for (auto w = begin; w != end; ++w) {
    stats_.mutex_denials.add(1);
    respond(w->second.from, w->second.rpc_id,
            encode_jmutex_response(JMutexResponse{false}));
  }
  mutex_waiters_.erase(pre.job);
  mutexes_.erase(pre.job);
  for (auto it = mutex_cast_.begin(); it != mutex_cast_.end();) {
    if (it->first == pre.job)
      it = mutex_cast_.erase(it);
    else
      ++it;
  }
  stats_.preempts_ordered.add(1);
  // Inject the requeue into the local PBS through the same exec_proc stage
  // as ordered commands, so it cannot overtake an in-flight apply.
  if (local_pbs_ != nullptr) {
    execute(config_.exec_proc, [this, job = pre.job] {
      net::CallOptions options;
      options.timeout = config_.local_rpc_timeout;
      call(local_pbs_endpoint(),
           pbs::encode_request(pbs::PreemptRequest{job}),
           [](std::optional<sim::Payload>) {}, options);
    });
  }
}

void Server::answer_mutex_waiters(pbs::JobId job) {
  auto it = mutexes_.find(job);
  if (it == mutexes_.end()) return;
  const MutexState& state = it->second;
  auto [begin, end] = mutex_waiters_.equal_range(job);
  for (auto w = begin; w != end;) {
    // A waiter is only answerable once its own claim is delivered (so its
    // rank among the first max_real is settled) or the job is done.
    if (!mutex_answerable(state, w->second.mom)) {
      ++w;
      continue;
    }
    bool won = mutex_winner(state, w->second.mom, w->second.head);
    (won ? stats_.mutex_grants : stats_.mutex_denials).add(1);
    if (won) m_jmutex_wait_.record((sim().now() - w->second.asked).us);
    respond(w->second.from, w->second.rpc_id,
            encode_jmutex_response(JMutexResponse{won}));
    w = mutex_waiters_.erase(w);
  }
}

bool Server::filter_report(const pbs::JobReport& report) {
  // Cancellations are ordered (jdel/qsig went through the group), so the
  // local cancelled flag is identical at every head: accept the matching
  // report directly.
  if (report.cancelled && local_pbs_ != nullptr) {
    auto job = local_pbs_->find_job(report.job_id);
    if (job.has_value() && job->cancelled) return true;
  }
  auto it = mutexes_.find(report.job_id);
  if (it == mutexes_.end()) return true;  // never arbitrated (no prologue)
  const MutexState& state = it->second;
  if (!state.done) {
    // The winner is not decided yet; the ordered MutexDone will complete
    // the job when it is. Dropping the report is safe - completion no
    // longer depends on it.
    stats_.reports_rejected.add(1);
    return false;
  }
  if (state.winner_mom == report.mom_host) return true;
  stats_.reports_rejected.add(1);
  return false;
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

void Server::on_view(const gcs::View& view) {
  sim().telemetry().trace().instant(sim().now().us, host_id(), tc_jview_,
                                    view.size(),
                                    view.members.empty() ? 0 : 1);
  if (view.members.empty()) {
    JLOG(kWarn, "joshua") << name() << " out of service (excluded from view)";
    for (auto& [seq, reply] : pending_replies_) {
      (void)seq;
      respond(reply.client, reply.rpc_id,
              error_response(reply.op, pbs::Status::kServerBusy));
    }
    pending_replies_.clear();
    if (config_.auto_rejoin) {
      set_timer(config_.rejoin_delay, [this] {
        if (host_up()) group_.join();
      });
    }
    return;
  }
  JLOG(kInfo, "joshua") << name() << " serving in view of " << view.size()
                        << " head(s)";
}

void Server::on_crash() {
  net::RpcNode::on_crash();
  pending_replies_.clear();
  mutexes_.clear();
  mutex_waiters_.clear();
  mutex_cast_.clear();
  revoked_moms_.clear();
  command_log_.clear();
  terminal_jobs_.clear();
  max_job_id_seen_ = pbs::kInvalidJob;
  replaying_ = false;
  replay_queue_.clear();
  held_commands_.clear();
  next_cmd_seq_ = 1;
}

}  // namespace joshua
