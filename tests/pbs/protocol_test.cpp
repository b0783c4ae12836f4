#include "pbs/protocol.h"

#include <gtest/gtest.h>

#include "pbs/pbs_harness.h"


namespace {

using namespace pbs;

JobSpec sample_spec() {
  JobSpec s;
  s.name = "climate-sim";
  s.user = "alice";
  s.nodes = 3;
  s.walltime = sim::minutes(30);
  s.run_time = sim::seconds(90);
  s.priority = -2;
  JobExtras extras;
  extras.script = "#!/bin/sh\nmpirun ./climate\n";
  s.extras = std::make_shared<const JobExtras>(std::move(extras));
  return s;
}

Job sample_job() {
  Job j;
  j.id = 17;
  j.spec = std::make_shared<const JobSpec>(sample_spec());
  j.state = JobState::kRunning;
  j.submit_time = sim::Time{1000};
  j.start_time = sim::Time{2000};
  j.end_time = sim::Time{0};
  j.exit_code = 0;
  j.queue_rank = 4;
  j.exec_host = 9;
  return j;
}

TEST(PbsJob, SpecRoundTrip) {
  net::Writer w;
  encode_job_spec(w, sample_spec());
  sim::Payload buf = w.take();
  net::Reader r(buf);
  JobSpec back = decode_job_spec(r);
  EXPECT_EQ(back.name, "climate-sim");
  EXPECT_EQ(back.user, "alice");
  EXPECT_EQ(back.nodes, 3u);
  EXPECT_EQ(back.walltime, sim::minutes(30));
  EXPECT_EQ(back.run_time, sim::seconds(90));
  EXPECT_EQ(back.priority, -2);
  EXPECT_EQ(back.script(), sample_spec().script());
}

TEST(PbsJob, JobRoundTrip) {
  net::Writer w;
  encode_job(w, sample_job());
  sim::Payload buf = w.take();
  net::Reader r(buf);
  Job back = decode_job(r);
  EXPECT_EQ(back.id, 17u);
  EXPECT_EQ(back.state, JobState::kRunning);
  EXPECT_EQ(back.queue_rank, 4u);
  EXPECT_EQ(back.exec_host, 9u);
  EXPECT_TRUE(back.active());
  EXPECT_FALSE(back.terminal());
}

TEST(PbsJob, StateHelpers) {
  EXPECT_EQ(state_letter(JobState::kQueued), 'Q');
  EXPECT_EQ(state_letter(JobState::kRunning), 'R');
  EXPECT_EQ(state_letter(JobState::kComplete), 'C');
  EXPECT_EQ(state_letter(JobState::kHeld), 'H');
  EXPECT_EQ(to_string(JobState::kExiting), "EXITING");
  EXPECT_EQ(job_id_string(12, "cluster"), "12.cluster");
}

TEST(PbsProtocol, SubmitRoundTrip) {
  sim::Payload buf = encode_request(SubmitRequest{sample_spec()});
  EXPECT_EQ(peek_op(buf), Op::kSubmit);
  SubmitRequest back = decode_submit(buf);
  EXPECT_EQ(back.spec.name, "climate-sim");
}

TEST(PbsProtocol, AllSimpleRequestsRoundTrip) {
  EXPECT_EQ(decode_delete(encode_request(DeleteRequest{7})).job_id, 7u);
  SignalRequest sig = decode_signal(encode_request(SignalRequest{8, 9}));
  EXPECT_EQ(sig.job_id, 8u);
  EXPECT_EQ(sig.signal, 9);
  EXPECT_EQ(decode_hold(encode_request(HoldRequest{3})).job_id, 3u);
  EXPECT_EQ(decode_release(encode_request(ReleaseRequest{4})).job_id, 4u);
  StatRequest st = decode_stat(encode_request(StatRequest{5, false}));
  EXPECT_EQ(st.job_id, 5u);
  EXPECT_FALSE(st.include_complete);
}

TEST(PbsProtocol, MomMessagesRoundTrip) {
  MomLaunchRequest launch{sample_job(), 2};
  MomLaunchRequest lb = decode_mom_launch(encode_request(launch));
  EXPECT_EQ(lb.job.id, 17u);
  EXPECT_EQ(lb.server_host, 2u);

  MomKillRequest kill{17, 2};
  MomKillRequest kb = decode_mom_kill(encode_request(kill));
  EXPECT_EQ(kb.job_id, 17u);

  MomEmuCompleteRequest emu{17, 3};
  MomEmuCompleteRequest eb = decode_mom_emu_complete(encode_request(emu));
  EXPECT_EQ(eb.exit_code, 3);

  JobReport report{17, 271, true, sim::Time{10}, sim::Time{20}, 5};
  JobReport rb = decode_job_report(encode_request(report));
  EXPECT_EQ(rb.job_id, 17u);
  EXPECT_EQ(rb.exit_code, 271);
  EXPECT_TRUE(rb.cancelled);
  EXPECT_EQ(rb.start_time, sim::Time{10});
  EXPECT_EQ(rb.mom_host, 5u);
}

TEST(PbsProtocol, StateMessagesRoundTrip) {
  LoadStateRequest load{{1, 2, 3}};
  EXPECT_EQ(decode_load_state(encode_request(load)).state,
            (sim::Payload{1, 2, 3}));
  DumpStateResponse dump{Status::kOk, {4, 5}};
  EXPECT_EQ(decode_dump_state_response(encode_response(dump)).state,
            (sim::Payload{4, 5}));
}

TEST(PbsProtocol, ResponsesRoundTrip) {
  SubmitResponse sub{Status::kOk, 42};
  SubmitResponse sb = decode_submit_response(encode_response(sub));
  EXPECT_EQ(sb.job_id, 42u);
  EXPECT_EQ(sb.status, Status::kOk);

  StatResponse stat{Status::kOk, {sample_job()}};
  StatResponse stb = decode_stat_response(encode_response(stat));
  ASSERT_EQ(stb.jobs.size(), 1u);
  EXPECT_EQ(stb.jobs[0].id, 17u);

  SimpleResponse simple{Status::kUnknownJob};
  EXPECT_EQ(decode_simple_response(encode_response(simple)).status,
            Status::kUnknownJob);

  MomLaunchResponse launch{Status::kOk, true};
  MomLaunchResponse lb = decode_mom_launch_response(encode_response(launch));
  EXPECT_TRUE(lb.emulated);
}

TEST(PbsProtocol, OpMismatchAndTruncationThrow) {
  sim::Payload buf = encode_request(DeleteRequest{7});
  EXPECT_THROW(decode_hold(buf), net::WireError);
  buf.resize(2);
  EXPECT_THROW(decode_delete(buf), net::WireError);
  EXPECT_THROW(peek_op(sim::Payload{}), net::WireError);
}

// -- wire compatibility ---------------------------------------------------
// Golden bytes of the record format as written when every record held its
// own full spec. Records now share their spec, and must still write exactly
// these bytes and give them back after a decode.

constexpr const char* kPlainJobHex =
    "11000000000000000b000000636c696d6174652d73696d05000000616c696365"
    "0500000062617463680300000000d2496b00000000804a5d0500000000feffff"
    "ffffffffff010000000a00000023212f62696e2f73680a030000006770750100"
    "0000060000006269676d656d00000000ffffffffffffffff03e8030000000000"
    "00d0070000000000000000000000000000000000000000000000040000000000"
    "00000900000002000000090000000b000000";
constexpr const char* kSubJobHex =
    "2a00000000000000060000006172725b325d0400000075736572050000006261"
    "746368010000000046c3230000000040420f0000000000000000000000000001"
    "0000000000000000000000000000000300000002000000000000000588130000"
    "000000000000000000000000581b0000000000000f0100000000000001080000"
    "0000000000ffffffff00000000";
constexpr const char* kStatHex =
    "000200000011000000000000000b000000636c696d6174652d73696d05000000"
    "616c6963650500000062617463680300000000d2496b00000000804a5d050000"
    "0000feffffffffffffff010000000a00000023212f62696e2f73680a03000000"
    "67707501000000060000006269676d656d00000000ffffffffffffffff03e803"
    "000000000000d007000000000000000000000000000000000000000000000004"
    "000000000000000900000002000000090000000b0000002a0000000000000006"
    "0000006172725b325d0400000075736572050000006261746368010000000046"
    "c3230000000040420f0000000000000000000000000001000000000000000000"
    "0000000000000300000002000000000000000588130000000000000000000000"
    "000000581b0000000000000f01000000000000010800000000000000ffffffff"
    "00000000";
constexpr const char* kStateHex =
    "0400000000000000040000000000000003000000000000000300000001000000"
    "00000000060000006172725b305d03000000626f620500000062617463680100"
    "00000046c32300000000404b4c00000000000000000000000000010000000000"
    "0000000000000000000003000000000000000000000000510100000000000000"
    "0000000000000000000000000000000000000000000000000100000000000000"
    "ffffffff000000000200000000000000060000006172725b315d03000000626f"
    "62050000006261746368010000000046c32300000000404b4c00000000000000"
    "0000000000000100000000000000000000000000000003000000010000000000"
    "0000005101000000000000000000000000000000000000000000000000000000"
    "000000000200000000000000ffffffff00000000030000000000000006000000"
    "6172725b325d03000000626f62050000006261746368010000000046c3230000"
    "0000404b4c000000000000000000000000000100000000000000000000000000"
    "0000030000000200000000000000005101000000000000000000000000000000"
    "000000000000000000000000000000000300000000000000ffffffff00000000";

std::string hex(const sim::Payload& p) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (uint8_t b : p) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

std::string job_hex(const Job& job) {
  net::Writer w;
  encode_job(w, job);
  return hex(w.take());
}

Job decode_hex_job(const char* golden) {
  std::string h(golden);
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < h.size(); i += 2)
    bytes.push_back(static_cast<uint8_t>(std::stoi(h.substr(i, 2), nullptr, 16)));
  sim::Payload buf = sim::Payload::adopt(std::move(bytes));
  net::Reader r(buf);
  Job job = decode_job(r);
  r.expect_done();
  return job;
}

Job golden_plain_job() {
  JobSpec spec;
  spec.name = "climate-sim";
  spec.user = "alice";
  spec.nodes = 3;
  spec.walltime = sim::minutes(30);
  spec.run_time = sim::seconds(90);
  spec.priority = -2;
  JobExtras extras;
  extras.script = "#!/bin/sh\n";
  extras.node_type = "gpu";
  extras.features = {"bigmem"};
  spec.extras = std::make_shared<const JobExtras>(std::move(extras));
  Job j;
  j.id = 17;
  j.spec = std::make_shared<const JobSpec>(std::move(spec));
  j.state = JobState::kRunning;
  j.submit_time = sim::Time{1000};
  j.start_time = sim::Time{2000};
  j.queue_rank = 4;
  j.exec_host = 9;
  j.replica_hosts = {9, 11};
  return j;
}

/// Sub-job 2 of a 3-job array named "arr", cancelled.
Job golden_sub_job() {
  JobSpec spec;
  spec.name = "arr";
  spec.array_count = 3;
  Job j;
  j.id = 42;
  j.spec = std::make_shared<const JobSpec>(std::move(spec));
  j.array_index = 2;
  j.state = JobState::kComplete;
  j.submit_time = sim::Time{5000};
  j.end_time = sim::Time{7000};
  j.exit_code = 271;
  j.cancelled = true;
  j.queue_rank = 8;
  return j;
}

TEST(PbsWire, PlainJobBytesUnchanged) {
  EXPECT_EQ(job_hex(golden_plain_job()), kPlainJobHex);
  Job back = decode_hex_job(kPlainJobHex);
  EXPECT_EQ(back.array_index, -1);
  EXPECT_EQ(back.spec->node_type(), "gpu");
  EXPECT_EQ(job_hex(back), kPlainJobHex);
}

TEST(PbsWire, ArraySubJobBytesUnchanged) {
  EXPECT_EQ(job_hex(golden_sub_job()), kSubJobHex);
  Job back = decode_hex_job(kSubJobHex);
  EXPECT_EQ(back.name(), "arr[2]");
  EXPECT_EQ(back.spec->name, "arr") << "decoded to the array's shared form";
  EXPECT_EQ(back.spec->array_index, -1);
  EXPECT_EQ(back.array_index, 2);
  EXPECT_EQ(job_hex(back), kSubJobHex);
}

TEST(PbsWire, StatResponseBytesUnchanged) {
  StatResponse stat{Status::kOk, {golden_plain_job(), golden_sub_job()}};
  sim::Payload bytes = encode_response(stat);
  EXPECT_EQ(hex(bytes), kStatHex);
  EXPECT_EQ(hex(encode_response(decode_stat_response(bytes))), kStatHex);
}

TEST(PbsWire, ServerStateBytesUnchanged) {
  JobSpec spec;
  spec.name = "arr";
  spec.user = "bob";
  spec.run_time = sim::seconds(5);
  spec.array_count = 3;
  pbstest::PbsHarness donor(0);
  ASSERT_NE(donor.submit(donor.make_client(), spec), kInvalidJob);
  sim::Payload state = donor.server->dump_state_blob();
  EXPECT_EQ(hex(state), kStateHex);

  pbstest::PbsHarness copy(0);
  copy.server->load_state_blob(state);
  EXPECT_EQ(hex(copy.server->dump_state_blob()), kStateHex);
}

TEST(PbsProtocol, StatusStrings) {
  EXPECT_EQ(to_string(Status::kOk), "ok");
  EXPECT_EQ(to_string(Status::kUnknownJob), "unknown job");
  EXPECT_EQ(to_string(Status::kUnsupported), "operation not supported");
}

}  // namespace
