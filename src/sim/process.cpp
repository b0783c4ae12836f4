#include "sim/process.h"

namespace sim {

Process::Process(Network& net, HostId host, Port port, std::string name)
    : net_(net), host_id_(host), port_(port), name_(std::move(name)) {
  net_.host(host_id_).bind(port_, this);
}

Process::~Process() {
  for (TimerId id : timers_) sim().cancel(id);
  net_.host(host_id_).unbind(port_);
}

Time Process::send(Endpoint dst, Payload data) {
  return net_.send(Packet{endpoint(), dst, std::move(data)});
}

void Process::multicast(Port dst_port, Payload data,
                        const std::vector<HostId>& dsts) {
  net_.multicast(endpoint(), dst_port, std::move(data), dsts);
}

TimerId Process::set_timer(Duration delay, EventFn fn) {
  // No wrapper: event ids are generation-tagged, so cancelling a fired
  // timer on crash is a safe no-op. Fired ids linger in timers_ until the
  // amortized sweep below evicts them.
  TimerId id = sim().schedule(delay, std::move(fn));
  timers_.insert(id);
  if (timers_.size() >= 64) {
    for (auto it = timers_.begin(); it != timers_.end();) {
      it = sim().event_pending(*it) ? std::next(it) : timers_.erase(it);
    }
  }
  return id;
}

void Process::cancel_timer(TimerId id) {
  if (timers_.erase(id) > 0) sim().cancel(id);
}

void Process::handle_packet(Packet packet) { on_packet(std::move(packet)); }

void Process::handle_host_crash() {
  for (TimerId id : timers_) sim().cancel(id);
  timers_.clear();
  on_crash();
}

void Process::handle_host_restart() { on_restart(); }

}  // namespace sim
