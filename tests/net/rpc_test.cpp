#include "net/rpc.h"

#include <gtest/gtest.h>

#include "testutil.h"

namespace {

/// Server that answers requests with a transformation, optionally delayed
/// or silently dropped.
class TestServer : public net::RpcNode {
 public:
  TestServer(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "server") {}

  void on_request(sim::Payload request, sim::Endpoint from,
                  uint64_t rpc_id) override {
    ++requests;
    if (drop_next) {
      drop_next = false;
      return;
    }
    std::vector<uint8_t> bytes(request.begin(), request.end());
    bytes.push_back(0xff);
    sim::Payload reply = sim::Payload::adopt(std::move(bytes));
    if (delay.us > 0) {
      set_timer(delay, [this, from, rpc_id, reply] {
        respond(from, rpc_id, reply);
      });
    } else {
      respond(from, rpc_id, reply);
    }
  }
  int requests = 0;
  bool drop_next = false;
  sim::Duration delay{0};
};

class TestClient : public net::RpcNode {
 public:
  TestClient(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "client") {}
  void on_request(sim::Payload, sim::Endpoint, uint64_t) override {}
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : sim_(1),
        net_(sim_, sim::NetworkConfig{}),
        server_host_(net_.add_host("s").id()),
        client_host_(net_.add_host("c").id()),
        server_(net_, server_host_, 100),
        client_(net_, client_host_, 101) {}

  sim::Simulation sim_;
  sim::Network net_;
  sim::HostId server_host_, client_host_;
  TestServer server_;
  TestClient client_;
};

TEST_F(RpcTest, RequestResponse) {
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {1, 2},
               [&](std::optional<sim::Payload> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (sim::Payload{1, 2, 0xff}));
}

TEST_F(RpcTest, ConcurrentCallsRouteCorrectly) {
  std::vector<sim::Payload> replies(10);
  for (uint8_t i = 0; i < 10; ++i) {
    client_.call({server_host_, 100}, {i},
                 [&replies, i](std::optional<sim::Payload> r) {
                   ASSERT_TRUE(r.has_value());
                   replies[i] = *r;
                 });
  }
  sim_.run();
  for (uint8_t i = 0; i < 10; ++i)
    EXPECT_EQ(replies[i], (sim::Payload{i, 0xff}));
}

TEST_F(RpcTest, TimeoutYieldsNullopt) {
  net_.crash_host(server_host_);
  bool called = false;
  std::optional<sim::Payload> got{sim::Payload{9}};
  net::CallOptions options;
  options.timeout = sim::msec(100);
  client_.call({server_host_, 100}, {1},
               [&](std::optional<sim::Payload> r) {
                 called = true;
                 got = std::move(r);
               },
               options);
  sim_.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

TEST_F(RpcTest, RetrySucceedsAfterDrop) {
  server_.drop_next = true;
  net::CallOptions options;
  options.timeout = sim::msec(100);
  options.attempts = 2;
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) { got = std::move(r); },
               options);
  sim_.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(server_.requests, 2);
}

TEST_F(RpcTest, DeferredResponseArrives) {
  server_.delay = sim::msec(50);
  std::optional<sim::Payload> got;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) { got = std::move(r); });
  sim_.run();
  ASSERT_TRUE(got.has_value());
}

TEST_F(RpcTest, LateResponseAfterTimeoutIgnored) {
  server_.delay = sim::msec(500);
  net::CallOptions options;
  options.timeout = sim::msec(100);
  int calls = 0;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) {
                 ++calls;
                 EXPECT_FALSE(r.has_value());
               },
               options);
  sim_.run();
  EXPECT_EQ(calls, 1) << "handler fires exactly once";
}

TEST_F(RpcTest, ClientCrashDropsPendingHandlers) {
  server_.delay = sim::msec(50);
  bool called = false;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload>) { called = true; });
  net_.crash_host(client_host_);
  sim_.run();
  EXPECT_FALSE(called) << "no callbacks after crash";
}

TEST_F(RpcTest, FailPendingCallsFiresNullopt) {
  server_.delay = sim::seconds(10);
  int calls = 0;
  client_.call({server_host_, 100}, {5},
               [&](std::optional<sim::Payload> r) {
                 ++calls;
                 EXPECT_FALSE(r.has_value());
               });
  sim_.run_for(sim::msec(10));
  client_.fail_pending_calls();
  sim_.run_for(sim::seconds(20));
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, MalformedPacketIgnored) {
  client_.send({server_host_, 100}, {0x77, 0x01});  // unknown frame kind
  sim_.run();
  EXPECT_EQ(server_.requests, 0);
}

// -- streamed responses -------------------------------------------------

/// Answers every request with `reply`, whatever the request holds.
class BulkServer : public net::RpcNode {
 public:
  BulkServer(sim::Network& net, sim::HostId host, sim::Port port)
      : net::RpcNode(net, host, port, "bulk") {}
  void on_request(sim::Payload, sim::Endpoint from, uint64_t rpc_id) override {
    respond(from, rpc_id, reply);
  }
  sim::Payload reply;
};

/// Man in the middle: forwards requests to the server and holds the
/// server's frames until the test releases them, in any order.
class Relay : public sim::Process {
 public:
  Relay(sim::Network& net, sim::HostId host, sim::Port port,
        sim::Endpoint server)
      : sim::Process(net, host, port, "relay"), server_(server) {}
  void on_packet(sim::Packet packet) override {
    if (packet.src == server_) {
      held.push_back(std::move(packet.data));
      return;
    }
    client_ = packet.src;
    send(server_, std::move(packet.data));
  }
  void release(size_t i) { send(client_, held.at(i)); }
  std::vector<sim::Payload> held;

 private:
  sim::Endpoint server_;
  sim::Endpoint client_;
};

/// Records when each packet arrives.
class Sink : public sim::Process {
 public:
  Sink(sim::Network& net, sim::HostId host, sim::Port port)
      : sim::Process(net, host, port, "sink") {}
  void on_packet(sim::Packet) override { arrivals.push_back(sim().now()); }
  std::vector<sim::Time> arrivals;
};

sim::Payload pattern(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  return sim::Payload::adopt(std::move(bytes));
}

sim::NetworkConfig no_jitter() {
  sim::NetworkConfig config;
  config.jitter = sim::usec(0);
  return config;
}

class RpcStreamTest : public ::testing::Test {
 protected:
  RpcStreamTest()
      : sim_(1),
        net_(sim_, no_jitter()),
        server_host_(net_.add_host("s").id()),
        client_host_(net_.add_host("c").id()),
        other_host_(net_.add_host("o").id()),
        server_(net_, server_host_, 100),
        client_(net_, client_host_, 101) {}

  uint64_t counter(const char* name) const {
    const auto* cell = sim_.telemetry().metrics().find_counter(name);
    return cell == nullptr ? 0 : cell->value;
  }
  uint64_t fragments() const { return counter("net.rpc_fragments"); }

  /// Call `dst` and record every handler invocation.
  void call(sim::Endpoint dst, sim::Duration timeout = sim::seconds(5)) {
    net::CallOptions options;
    options.timeout = timeout;
    client_.call(dst, {1, 2, 3},
                 [this](std::optional<sim::Payload> r) {
                   results_.push_back(std::move(r));
                   done_at_ = sim_.now();
                 },
                 options);
  }

  sim::Simulation sim_;
  sim::Network net_;
  sim::HostId server_host_, client_host_, other_host_;
  BulkServer server_;
  TestClient client_;
  std::vector<std::optional<sim::Payload>> results_;
  sim::Time done_at_{0};
};

constexpr size_t kChunk = net::kMaxResponseChunk;

TEST_F(RpcStreamTest, LargeResponseReassemblesByteExact) {
  server_.reply = pattern(5 * kChunk + 123);
  call({server_host_, 100});
  sim_.run();
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].has_value());
  EXPECT_EQ(*results_[0], server_.reply);
  EXPECT_EQ(fragments(), 6u);
  EXPECT_EQ(net_.frames_sent(), 7u) << "one request, six fragments";
}

TEST_F(RpcStreamTest, ResponseAtTheBoundIsOneFrame) {
  server_.reply = pattern(kChunk);
  call({server_host_, 100});
  sim_.run();
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].has_value());
  EXPECT_EQ(*results_[0], server_.reply);
  EXPECT_EQ(fragments(), 0u);
  EXPECT_EQ(net_.frames_sent(), 2u);
  // Request and response, each kind + rpc id + length-prefixed body.
  const uint64_t overhead = net_.config().frame_overhead_bytes;
  EXPECT_EQ(net_.bytes_sent(), (13 + 3 + overhead) + (13 + kChunk + overhead));
}

TEST_F(RpcStreamTest, LoopbackResponseIsOneFrame) {
  BulkServer local(net_, client_host_, 102);
  local.reply = pattern(4 * kChunk);
  call({client_host_, 102});
  sim_.run();
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].has_value());
  EXPECT_EQ(*results_[0], local.reply);
  EXPECT_EQ(fragments(), 0u);
  EXPECT_EQ(counter("net.packets_delivered"), 2u);
}

TEST_F(RpcStreamTest, SmallFrameSentMidTrainWaitsAtMostOneFragment) {
  server_.reply = pattern(40 * kChunk);
  Sink sink(net_, client_host_, 103);
  call({server_host_, 100});
  ASSERT_TRUE(testutil::run_until(sim_, [&] { return fragments() >= 3; },
                                  sim::seconds(1), sim::usec(50)));
  const sim::Time sent = sim_.now();
  net_.send({{other_host_, 1}, {client_host_, 103}, sim::Payload{7}});
  sim_.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].has_value());
  EXPECT_LT(sink.arrivals[0], done_at_) << "delivered before the train ended";

  const sim::NetworkConfig& c = net_.config();
  auto transmit_us = [&](size_t bytes) {
    return static_cast<int64_t>(
        static_cast<double>(bytes + c.frame_overhead_bytes) * 8.0 /
        c.bandwidth_bps * 1e6);
  };
  // A fragment frame: 25 header bytes (kind, rpc id, stream, total, offset,
  // length) around one chunk.
  const int64_t fragment_us = transmit_us(25 + kChunk);
  const int64_t idle_us = transmit_us(1) + c.propagation.us +
                          2 * c.stack_latency.us;
  EXPECT_LE((sink.arrivals[0] - sent).us, idle_us + fragment_us);
}

TEST_F(RpcStreamTest, DuplicatedAndReorderedFragmentsAreAbsorbed) {
  server_.reply = pattern(3 * kChunk + 7);
  Relay relay(net_, other_host_, 104, {server_host_, 100});
  call({other_host_, 104});
  ASSERT_TRUE(testutil::run_until(sim_, [&] { return relay.held.size() == 4; },
                                  sim::seconds(1), sim::usec(100)));
  for (size_t i : {2, 0, 2, 3, 0}) {
    relay.release(i);
    sim_.run_for(sim::msec(5));
  }
  EXPECT_TRUE(results_.empty()) << "fragment 1 is still missing";
  relay.release(1);
  sim_.run_for(sim::msec(5));
  relay.release(3);  // after completion: the call is gone
  sim_.run();
  ASSERT_EQ(results_.size(), 1u);
  ASSERT_TRUE(results_[0].has_value());
  EXPECT_EQ(*results_[0], server_.reply);
}

TEST_F(RpcStreamTest, LostFragmentEndsInTimeoutAndLaterFragmentsAreIgnored) {
  server_.reply = pattern(3 * kChunk + 7);
  Relay relay(net_, other_host_, 104, {server_host_, 100});
  call({other_host_, 104}, sim::msec(200));
  ASSERT_TRUE(testutil::run_until(sim_, [&] { return relay.held.size() == 4; },
                                  sim::seconds(1), sim::usec(100)));
  for (size_t i : {0, 1, 3}) relay.release(i);  // fragment 2 is lost
  sim_.run_for(sim::msec(300));
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_FALSE(results_[0].has_value());
  relay.release(2);  // arrives after the timeout
  sim_.run();
  EXPECT_EQ(results_.size(), 1u) << "the handler fired exactly once";
}

TEST_F(RpcStreamTest, ResponderCrashMidTrainEndsInTimeout) {
  server_.reply = pattern(40 * kChunk);
  call({server_host_, 100}, sim::msec(500));
  ASSERT_TRUE(testutil::run_until(sim_, [&] { return fragments() >= 2; },
                                  sim::seconds(1), sim::usec(50)));
  net_.crash_host(server_host_);
  const uint64_t sent = fragments();
  sim_.run();
  EXPECT_EQ(fragments(), sent) << "the crash dropped the rest of the train";
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_FALSE(results_[0].has_value());
}

}  // namespace
