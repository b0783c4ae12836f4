#include "rsm/replicated_service.h"

#include "net/wire.h"
#include "telemetry/hub.h"
#include "util/logging.h"

namespace rsm {
namespace {

/// Group message framing: [u32 origin][u64 seq][bytes request].
sim::Payload encode_ordered(gcs::MemberId origin, uint64_t seq,
                            const sim::Payload& request) {
  net::Writer w;
  w.u32(origin);
  w.u64(seq);
  w.bytes(request);
  return w.take();
}

struct Ordered {
  gcs::MemberId origin;
  uint64_t seq;
  sim::Payload request;
};

Ordered decode_ordered(const sim::Payload& buf) {
  net::Reader r(buf);
  Ordered o;
  o.origin = r.u32();
  o.seq = r.u64();
  o.request = r.bytes();
  r.expect_done();
  return o;
}

}  // namespace

ReplicaNode::ReplicaNode(sim::Network& net, sim::HostId host,
                         ReplicaConfig config, IDeterministicService* service)
    : net::RpcNode(net, host, config.client_port,
                   "replica@" + net.host(host).name()),
      config_(std::move(config)),
      service_(service),
      group_(net, host, config_.group,
             gcs::GroupCallbacks{
                 [this](const gcs::View& v) { on_view(v); },
                 [this](const gcs::Delivered& d) { on_deliver(d); },
                 [this] { return service_->snapshot(); },
                 [this](const sim::Payload& s) { service_->install(s); },
             }) {
  if (service_ == nullptr)
    throw std::invalid_argument("ReplicaNode: null service");
  telemetry::Hub& hub = net.sim().telemetry();
  stats_.requests = hub.metrics().counter("rsm.requests");
  stats_.applied = hub.metrics().counter("rsm.applied");
  stats_.local_reads = hub.metrics().counter("rsm.local_reads");
  stats_.replies = hub.metrics().counter("rsm.replies");
  m_order_latency_ = hub.metrics().histogram("rsm.order_latency_us");
  tc_order_ = hub.trace().intern("rsm.order");
}

void ReplicaNode::start() { group_.join(); }

void ReplicaNode::shutdown() {
  pending_.clear();
  group_.leave();
}

void ReplicaNode::on_request(sim::Payload request, sim::Endpoint from,
                             uint64_t rpc_id) {
  stats_.requests.add(1);
  execute(config_.request_proc, [this, request = std::move(request), from,
                                 rpc_id] {
    if (!group_.is_member()) return;  // client fails over
    if (config_.read_local && service_->is_read_only(request)) {
      stats_.local_reads.add(1);
      execute(service_->apply_cost(request), [this, request, from, rpc_id] {
        sim::Payload response = service_->apply(request);
        stats_.replies.add(1);
        respond(from, rpc_id, std::move(response));
      });
      return;
    }
    uint64_t seq = next_seq_++;
    pending_[seq] = {from, rpc_id, sim().now().us};
    group_.multicast(encode_ordered(group_.id(), seq, request),
                     gcs::Delivery::kAgreed);
  });
}

void ReplicaNode::on_deliver(const gcs::Delivered& msg) {
  Ordered ordered;
  try {
    ordered = decode_ordered(msg.payload);
  } catch (const net::WireError& e) {
    JLOG(kWarn, "rsm") << name() << ": bad ordered request: " << e.what();
    return;
  }
  execute(service_->apply_cost(ordered.request),
          [this, ordered = std::move(ordered)] {
            sim::Payload response = service_->apply(ordered.request);
            stats_.applied.add(1);
            if (ordered.origin != group_.id()) return;
            auto it = pending_.find(ordered.seq);
            if (it == pending_.end()) return;
            Pending p = it->second;
            pending_.erase(it);
            // The ordering decision for this request is final: span from
            // multicast to ordered application at the origin.
            m_order_latency_.record(sim().now().us - p.ordered_at_us);
            sim().telemetry().trace().complete(p.ordered_at_us, sim().now().us,
                                               host_id(), tc_order_,
                                               ordered.seq);
            stats_.replies.add(1);
            respond(p.client, p.rpc_id, std::move(response));
          });
}

void ReplicaNode::on_view(const gcs::View& view) {
  if (view.members.empty()) {
    JLOG(kWarn, "rsm") << name() << " excluded from the replica group";
    pending_.clear();
  }
}

void ReplicaNode::on_crash() {
  net::RpcNode::on_crash();
  pending_.clear();
  next_seq_ = 1;
}

ReplicaClient::ReplicaClient(sim::Network& net, sim::HostId host,
                             sim::Port port, Config config)
    : net::RpcNode(net, host, port, "rsm_client@" + net.host(host).name()),
      config_(std::move(config)) {
  if (config_.replicas.empty())
    throw std::invalid_argument("ReplicaClient: no replicas");
}

void ReplicaClient::request(sim::Payload payload, Handler done) {
  attempt(std::move(payload), std::move(done), config_.replicas.size());
}

void ReplicaClient::attempt(sim::Payload payload, Handler done,
                            size_t tries_left) {
  net::CallOptions options;
  options.timeout = config_.timeout;
  call(config_.replicas[current_], payload,
       [this, payload, done = std::move(done),
        tries_left](std::optional<sim::Payload> resp) mutable {
         if (resp.has_value()) {
           done(std::move(resp));
           return;
         }
         if (tries_left <= 1) {
           done(std::nullopt);
           return;
         }
         current_ = (current_ + 1) % config_.replicas.size();
         ++failovers_;
         attempt(std::move(payload), std::move(done), tries_left - 1);
       },
       options);
}

}  // namespace rsm
