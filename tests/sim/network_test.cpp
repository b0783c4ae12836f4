#include "sim/network.h"

#include <gtest/gtest.h>

#include "sim/process.h"
#include "sim/simulation.h"

namespace {

/// Records every packet it receives.
class Sink : public sim::Process {
 public:
  Sink(sim::Network& net, sim::HostId host, sim::Port port)
      : sim::Process(net, host, port, "sink") {}
  void on_packet(sim::Packet packet) override {
    received.push_back(std::move(packet));
    receive_times.push_back(sim().now());
  }
  std::vector<sim::Packet> received;
  std::vector<sim::Time> receive_times;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(sim_, sim::NetworkConfig{}) {
    a_ = net_.add_host("a").id();
    b_ = net_.add_host("b").id();
    c_ = net_.add_host("c").id();
  }
  sim::Simulation sim_;
  sim::Network net_;
  sim::HostId a_, b_, c_;
};

TEST_F(NetworkTest, UnicastDelivers) {
  Sink sink(net_, b_, 10);
  net_.send({{a_, 1}, {b_, 10}, {0x42}});
  sim_.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].data, sim::Payload{0x42});
  EXPECT_EQ(sink.received[0].src.host, a_);
  EXPECT_GT(sim_.now().us, 0) << "network latency must be nonzero";
}

TEST_F(NetworkTest, LoopbackFasterThanRemote) {
  Sink local(net_, a_, 10);
  Sink remote(net_, b_, 10);
  net_.send({{a_, 1}, {a_, 10}, {1}});
  net_.send({{a_, 1}, {b_, 10}, {2}});
  sim_.run();
  ASSERT_EQ(local.receive_times.size(), 1u);
  ASSERT_EQ(remote.receive_times.size(), 1u);
  EXPECT_LT(local.receive_times[0], remote.receive_times[0]);
}

TEST_F(NetworkTest, UnboundPortDropsSilently) {
  net_.send({{a_, 1}, {b_, 99}, {1}});
  sim_.run();  // must not crash
}

TEST_F(NetworkTest, CrashedHostReceivesNothing) {
  Sink sink(net_, b_, 10);
  net_.crash_host(b_);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(net_.frames_dropped(), 1u);
}

TEST_F(NetworkTest, CrashedSenderSendsNothing) {
  Sink sink(net_, b_, 10);
  net_.crash_host(a_);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetworkTest, InFlightPacketDroppedOnCrash) {
  Sink sink(net_, b_, 10);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  net_.crash_host(b_);  // crash before delivery event fires
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetworkTest, RestartRestoresDelivery) {
  Sink sink(net_, b_, 10);
  net_.crash_host(b_);
  net_.restart_host(b_);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(net_.host(b_).incarnation(), 2u);
}

TEST_F(NetworkTest, PartitionBlocksTraffic) {
  Sink sink(net_, b_, 10);
  net_.set_partition(b_, 1);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
  net_.clear_partitions();
  net_.send({{a_, 1}, {b_, 10}, {2}});
  sim_.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkTest, SamePartitionNonZeroStillTalks) {
  Sink sink(net_, b_, 10);
  net_.set_partition(a_, 1);
  net_.set_partition(b_, 1);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkTest, MulticastOneMediumSlotManyReceivers) {
  Sink sb(net_, b_, 10);
  Sink sc(net_, c_, 10);
  net_.multicast({a_, 1}, 10, {7}, {b_, c_});
  sim_.run();
  EXPECT_EQ(sb.received.size(), 1u);
  EXPECT_EQ(sc.received.size(), 1u);
  EXPECT_EQ(net_.frames_sent(), 1u) << "physical multicast = one frame";
}

TEST_F(NetworkTest, MulticastSkipsDownAndPartitioned) {
  Sink sb(net_, b_, 10);
  Sink sc(net_, c_, 10);
  net_.crash_host(b_);
  net_.multicast({a_, 1}, 10, {7}, {b_, c_});
  sim_.run();
  EXPECT_TRUE(sb.received.empty());
  EXPECT_EQ(sc.received.size(), 1u);
}

TEST_F(NetworkTest, MulticastIncludesLocalDelivery) {
  Sink sa(net_, a_, 10);
  Sink sb(net_, b_, 10);
  net_.multicast({a_, 1}, 10, {7}, {a_, b_});
  sim_.run();
  EXPECT_EQ(sa.received.size(), 1u);
  EXPECT_EQ(sb.received.size(), 1u);
}

TEST_F(NetworkTest, LossRateDropsFrames) {
  net_.mutable_config().loss_rate = 1.0;
  Sink sink(net_, b_, 10);
  net_.send({{a_, 1}, {b_, 10}, {1}});
  sim_.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(net_.frames_dropped(), 1u);
}

TEST_F(NetworkTest, SharedMediumSerializesLargeFrames) {
  // Two large back-to-back frames must arrive separated by at least the
  // transmission time of one frame (the hub is half duplex).
  Sink sink(net_, b_, 10);
  sim::Payload big(125000, 0xab);  // 1 Mbit -> 10 ms at 100 Mbit/s
  net_.send({{a_, 1}, {b_, 10}, big});
  net_.send({{c_, 1}, {b_, 10}, big});
  sim_.run();
  ASSERT_EQ(sink.received.size(), 2u);
  sim::Duration gap = sink.receive_times[1] - sink.receive_times[0];
  EXPECT_GE(gap.us, 9000) << "second frame waited for the medium";
}

TEST_F(NetworkTest, SendReturnsWhenTheFrameReleasesTheMedium) {
  Sink sink(net_, b_, 10);
  sim::Payload big(125000 - 54, 0xab);  // with framing: 1 Mbit, 10 ms
  sim::Time first = net_.send({{a_, 1}, {b_, 10}, big});
  EXPECT_EQ(first.us, 10000);
  // Queued behind the first frame: released one more slot later.
  sim::Time second = net_.send({{c_, 1}, {b_, 10}, big});
  EXPECT_EQ(second.us, 20000);
  // Loopback and dropped frames never hold the medium.
  EXPECT_EQ(net_.send({{b_, 1}, {b_, 10}, big}).us, 0);
  net_.crash_host(c_);
  EXPECT_EQ(net_.send({{a_, 1}, {c_, 10}, big}).us, 0);
  sim_.run();
  EXPECT_EQ(sink.received.size(), 3u);
}

TEST_F(NetworkTest, HostCpuSerializesWork) {
  sim::Host& host = net_.host(a_);
  std::vector<int64_t> done;
  host.execute(sim::msec(10), [&] { done.push_back(sim_.now().us); });
  host.execute(sim::msec(10), [&] { done.push_back(sim_.now().us); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 10000);
  EXPECT_EQ(done[1], 20000) << "second task queued behind the first";
}

TEST_F(NetworkTest, CpuScaleSpeedsUpWork) {
  sim::HostId fast = net_.add_host("fast", 0.5).id();
  std::vector<int64_t> done;
  net_.host(fast).execute(sim::msec(10), [&] { done.push_back(sim_.now().us); });
  sim_.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 5000);
}

TEST_F(NetworkTest, CrashDiscardsQueuedCpuWork) {
  bool ran = false;
  net_.host(a_).execute(sim::msec(10), [&] { ran = true; });
  net_.crash_host(a_);
  net_.restart_host(a_);
  sim_.run();
  EXPECT_FALSE(ran) << "work of the old incarnation must not run";
}

TEST_F(NetworkTest, DiskSurvivesCrash) {
  net_.host(a_).disk()["key"] = "value";
  net_.crash_host(a_);
  net_.restart_host(a_);
  EXPECT_EQ(net_.host(a_).disk()["key"], "value");
}

TEST_F(NetworkTest, HostLookupByName) {
  EXPECT_EQ(net_.host_by_name("b"), b_);
  EXPECT_THROW(net_.host_by_name("zzz"), std::out_of_range);
  EXPECT_THROW(net_.host(999), std::out_of_range);
}

TEST_F(NetworkTest, DoublePortBindThrows) {
  Sink sink(net_, b_, 10);
  EXPECT_THROW(Sink(net_, b_, 10), std::runtime_error);
}

}  // namespace
