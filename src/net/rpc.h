// Request/response messaging over the simulated network.
//
// RpcNode frames packets as either a request (carrying a fresh rpc id) or a
// response (echoing it). Callers get a callback with the response payload or
// std::nullopt on timeout; servers implement on_request() and answer with
// respond(). A node can act as client and server at once -- the JOSHUA
// server does both.
//
// A response that crosses the hub with a body larger than kMaxResponseChunk
// streams as a train of fragments, each carrying at most that many body
// bytes. The responder sends fragment k+1 when fragment k releases the
// medium, so other hosts' frames interleave with the train instead of
// queueing behind one multi-megabyte frame. The caller reassembles by offset
// and fires the handler once with the whole body; a train that never
// completes (responder crash, lost fragment) ends in the call's timeout.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/wire.h"
#include "sim/process.h"
#include "telemetry/metrics.h"

namespace net {

/// Largest response body sent as one frame over the hub; larger bodies
/// stream in fragments of at most this many body bytes.
inline constexpr size_t kMaxResponseChunk = 16 * 1024;

struct CallOptions {
  sim::Duration timeout = sim::seconds(5);
  int attempts = 1;  ///< total tries (1 = no retry)
};

class RpcNode : public sim::Process {
 public:
  using ResponseHandler = std::function<void(std::optional<Payload> response)>;

  RpcNode(sim::Network& net, sim::HostId host, sim::Port port,
          std::string name);

  /// Issue a request; `on_response` fires exactly once, with nullopt after
  /// all attempts timed out.
  void call(sim::Endpoint dst, Payload request, ResponseHandler on_response,
            CallOptions options = {});

  /// Cancel every in-flight call (used on crash); handlers fire with nullopt.
  void fail_pending_calls();

 protected:
  /// Server side: handle a request; eventually answer via respond(from, id,..)
  /// (synchronously or later).
  virtual void on_request(Payload request, sim::Endpoint from,
                          uint64_t rpc_id) = 0;

  /// Hook for non-RPC datagrams sharing the port (kind byte != rpc).
  virtual void on_datagram(sim::Packet packet) { (void)packet; }

  void respond(sim::Endpoint to, uint64_t rpc_id, Payload response);

  // sim::Process:
  void on_packet(sim::Packet packet) final;
  void on_crash() override;

  /// Frame a raw (non-RPC) datagram so it is routed to on_datagram().
  static Payload frame_datagram(Payload inner);

 private:
  /// A fragmented response being put back together at the caller. A
  /// fragment from another (source, stream) starts the reassembly over, so a
  /// retried call never mixes two answers.
  struct Reassembly {
    sim::Endpoint src;
    uint32_t stream = 0;
    std::vector<uint8_t> bytes;
    std::vector<bool> have;  ///< per fragment index
    size_t missing = 0;
  };

  struct Pending {
    sim::Endpoint dst;
    Payload request;
    ResponseHandler handler;
    CallOptions options;
    int attempts_left = 0;
    sim::TimerId timer = 0;
    Reassembly inbound;
  };

  /// A response train on its way out; shared by the pacing timers.
  struct Outbound {
    sim::Endpoint to;
    uint64_t rpc_id = 0;
    uint32_t stream = 0;
    Payload body;
  };

  void transmit(uint64_t id);
  void expire(uint64_t id);
  void complete(std::map<uint64_t, Pending>::iterator it, Payload body);
  /// Send the fragment at `offset`, then schedule the next one for when
  /// this one releases the medium.
  void stream_from(std::shared_ptr<const Outbound> out, size_t offset);
  void on_fragment(Reader& r, sim::Endpoint src);

  uint64_t next_rpc_id_ = 1;
  uint32_t next_stream_ = 1;
  std::map<uint64_t, Pending> pending_;
  telemetry::Counter m_fragments_;
};

}  // namespace net
