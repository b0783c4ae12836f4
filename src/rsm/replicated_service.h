// Generic symmetric active/active replication for deterministic services.
//
// The paper's closing claim: "the generic symmetric active/active high
// availability model our approach is based on is applicable to any
// deterministic HPC system service, such as to the metadata server of the
// parallel virtual file system (PVFS)". This module is that generalization:
// JOSHUA's interceptor pattern factored out of the PBS specifics.
//
// A deterministic service implements IDeterministicService; ReplicaNode
// wraps one instance per head node, totally orders client requests through
// the group communication system, applies them identically at every
// replica, and answers from the contacted replica only (exactly-once
// output). Joining replicas receive a snapshot before any post-join
// request.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "gcs/group_member.h"
#include "net/rpc.h"
#include "telemetry/metrics.h"

namespace rsm {

/// A service suitable for symmetric active/active replication: request
/// application must be deterministic (same request sequence -> same state
/// and same responses at every replica).
class IDeterministicService {
 public:
  virtual ~IDeterministicService() = default;

  /// Apply one request and produce the response. Must be deterministic;
  /// must not consult wall clocks or randomness outside the request.
  virtual sim::Payload apply(const sim::Payload& request) = 0;

  /// Serialize the full service state.
  virtual sim::Payload snapshot() const = 0;

  /// Replace the state with a snapshot.
  virtual void install(const sim::Payload& snapshot) = 0;

  /// Read-only requests may optionally skip total ordering (served from
  /// local state). Default: everything is ordered.
  virtual bool is_read_only(const sim::Payload& request) const {
    (void)request;
    return false;
  }

  /// CPU cost of applying a request on the calibrated testbed.
  virtual sim::Duration apply_cost(const sim::Payload& request) const {
    (void)request;
    return sim::msec(5);
  }
};

struct ReplicaConfig {
  sim::Port client_port = 19000;
  gcs::GroupConfig group;  ///< peers = replica hosts; group.port distinct
  /// Serve is_read_only() requests from local state without ordering
  /// (weaker consistency, lower latency -- the read-local ablation).
  bool read_local = false;
  sim::Duration request_proc = sim::msec(2);
};

class ReplicaNode : public net::RpcNode {
 public:
  /// The node owns neither the service nor the network.
  ReplicaNode(sim::Network& net, sim::HostId host, ReplicaConfig config,
              IDeterministicService* service);

  void start();     ///< join the replica group
  void shutdown();  ///< leave gracefully

  bool in_service() const { return group_.is_member(); }
  const gcs::GroupMember& group() const { return group_; }
  gcs::GroupMember& group() { return group_; }

  /// "rsm.*" counters, registered in the ctor; own() is this replica's count.
  struct Stats {
    telemetry::Counter requests;
    telemetry::Counter applied;
    telemetry::Counter local_reads;
    telemetry::Counter replies;
  };
  const Stats& stats() const { return stats_; }

  // net::RpcNode:
  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override;
  void on_crash() override;

 private:
  void on_deliver(const gcs::Delivered& msg);
  void on_view(const gcs::View& view);

  ReplicaConfig config_;
  IDeterministicService* service_;
  gcs::GroupMember group_;
  uint64_t next_seq_ = 1;
  /// In-flight ordered requests by local seq: reply route plus the time the
  /// request entered the total order (for the ordering-latency span).
  struct Pending {
    sim::Endpoint client;
    uint64_t rpc_id = 0;
    int64_t ordered_at_us = 0;
  };
  std::map<uint64_t, Pending> pending_;
  Stats stats_;
  telemetry::Histogram m_order_latency_;
  uint16_t tc_order_ = 0;
};

/// Client with transparent replica failover (mirrors joshua::Client).
class ReplicaClient : public net::RpcNode {
 public:
  struct Config {
    std::vector<sim::Endpoint> replicas;
    sim::Duration timeout = sim::seconds(5);
  };

  ReplicaClient(sim::Network& net, sim::HostId host, sim::Port port,
                Config config);

  using Handler = std::function<void(std::optional<sim::Payload>)>;
  void request(sim::Payload payload, Handler done);

  uint64_t failovers() const { return failovers_; }

 protected:
  void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}

 private:
  void attempt(sim::Payload payload, Handler done, size_t tries_left);

  Config config_;
  size_t current_ = 0;
  uint64_t failovers_ = 0;
};

}  // namespace rsm
