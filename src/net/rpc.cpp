#include "net/rpc.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace net {
namespace {
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
constexpr uint8_t kKindDatagram = 3;
/// One piece of a streamed response: rpc id, stream, total body size,
/// offset, then the piece itself.
constexpr uint8_t kKindFragment = 4;
}  // namespace

RpcNode::RpcNode(sim::Network& net, sim::HostId host, sim::Port port,
                 std::string name)
    : sim::Process(net, host, port, std::move(name)),
      m_fragments_(sim().telemetry().metrics().counter("net.rpc_fragments")) {}

void RpcNode::call(sim::Endpoint dst, Payload request,
                   ResponseHandler on_response, CallOptions options) {
  uint64_t id = next_rpc_id_++;
  Pending pending;
  pending.dst = dst;
  pending.request = std::move(request);
  pending.handler = std::move(on_response);
  pending.options = options;
  pending.attempts_left = options.attempts;
  pending_.emplace(id, std::move(pending));
  transmit(id);
}

void RpcNode::transmit(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  --p.attempts_left;

  Writer w;
  w.u8(kKindRequest);
  w.u64(id);
  w.bytes(p.request);
  send(p.dst, w.take());

  p.timer = set_timer(p.options.timeout, [this, id] { expire(id); });
}

void RpcNode::expire(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  if (it->second.attempts_left > 0) {
    transmit(id);
    return;
  }
  ResponseHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(std::nullopt);
}

void RpcNode::fail_pending_calls() {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [id, p] : pending) {
    cancel_timer(p.timer);
    p.handler(std::nullopt);
  }
}

void RpcNode::respond(sim::Endpoint to, uint64_t rpc_id, Payload response) {
  if (response.size() > kMaxResponseChunk && to.host != host_id()) {
    auto out = std::make_shared<Outbound>(
        Outbound{to, rpc_id, next_stream_++, std::move(response)});
    stream_from(std::move(out), 0);
    return;
  }
  Writer w;
  w.u8(kKindResponse);
  w.u64(rpc_id);
  w.bytes(response);
  send(to, w.take());
}

void RpcNode::stream_from(std::shared_ptr<const Outbound> out, size_t offset) {
  size_t n = std::min(kMaxResponseChunk, out->body.size() - offset);
  Writer w;
  w.u8(kKindFragment);
  w.u64(out->rpc_id);
  w.u32(out->stream);
  w.u32(static_cast<uint32_t>(out->body.size()));
  w.u32(static_cast<uint32_t>(offset));
  w.bytes(out->body.slice(offset, n));
  m_fragments_.add(1);
  sim::Time released = send(out->to, w.take());
  size_t next = offset + n;
  if (next == out->body.size()) return;
  // A process timer, so a crash of this host drops the rest of the train.
  set_timer(released - sim().now(), [this, out = std::move(out), next] {
    stream_from(out, next);
  });
}

Payload RpcNode::frame_datagram(Payload inner) {
  Writer w;
  w.u8(kKindDatagram);
  w.bytes(inner);
  return w.take();
}

void RpcNode::on_packet(sim::Packet packet) {
  try {
    Reader r(packet.data);
    uint8_t kind = r.u8();
    switch (kind) {
      case kKindRequest: {
        uint64_t id = r.u64();
        Payload body = r.bytes();
        on_request(std::move(body), packet.src, id);
        break;
      }
      case kKindResponse: {
        uint64_t id = r.u64();
        Payload body = r.bytes();
        auto it = pending_.find(id);
        if (it == pending_.end()) return;  // late or duplicate response
        complete(it, std::move(body));
        break;
      }
      case kKindFragment:
        on_fragment(r, packet.src);
        break;
      case kKindDatagram: {
        sim::Packet inner;
        inner.src = packet.src;
        inner.dst = packet.dst;
        inner.data = r.bytes();
        on_datagram(std::move(inner));
        break;
      }
      default:
        JLOG(kWarn, "rpc") << name() << ": unknown frame kind "
                           << static_cast<int>(kind);
    }
  } catch (const WireError& e) {
    JLOG(kWarn, "rpc") << name() << ": malformed packet: " << e.what();
  }
}

void RpcNode::complete(std::map<uint64_t, Pending>::iterator it,
                       Payload body) {
  cancel_timer(it->second.timer);
  ResponseHandler handler = std::move(it->second.handler);
  pending_.erase(it);
  handler(std::move(body));
}

void RpcNode::on_fragment(Reader& r, sim::Endpoint src) {
  uint64_t id = r.u64();
  uint32_t stream = r.u32();
  uint32_t total = r.u32();
  uint32_t offset = r.u32();
  Payload chunk = r.bytes();
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // the call already ended
  if (total <= kMaxResponseChunk || offset % kMaxResponseChunk != 0 ||
      offset >= total ||
      chunk.size() != std::min<size_t>(kMaxResponseChunk, total - offset))
    throw WireError("fragment out of bounds");

  Reassembly& in = it->second.inbound;
  if (in.src != src || in.stream != stream || in.bytes.size() != total) {
    size_t count = (total + kMaxResponseChunk - 1) / kMaxResponseChunk;
    in = Reassembly{src, stream, std::vector<uint8_t>(total),
                    std::vector<bool>(count), count};
  }
  size_t index = offset / kMaxResponseChunk;
  if (in.have[index]) return;  // duplicate
  in.have[index] = true;
  std::memcpy(in.bytes.data() + offset, chunk.data(), chunk.size());
  if (--in.missing > 0) return;
  complete(it, Payload::adopt(std::move(in.bytes)));
}

void RpcNode::on_crash() {
  // In-flight calls die with the process; handlers must not fire post-crash.
  for (auto& [id, p] : pending_) cancel_timer(p.timer);
  pending_.clear();
}

}  // namespace net
