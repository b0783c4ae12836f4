#include "pbs/protocol.h"

namespace pbs {

std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnknownJob: return "unknown job";
    case Status::kInvalidState: return "invalid job state";
    case Status::kUnsupported: return "operation not supported";
    case Status::kServerBusy: return "server busy";
    case Status::kInternal: return "internal error";
  }
  return "?";
}

namespace {
net::Writer begin(Op op) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(op));
  return w;
}
net::Reader open(const sim::Payload& buf, Op expected) {
  net::Reader r(buf);
  auto op = static_cast<Op>(r.u8());
  if (op != expected) throw net::WireError("pbs: op mismatch");
  return r;
}
}  // namespace

Op peek_op(const sim::Payload& buf) {
  if (buf.empty()) throw net::WireError("pbs: empty request");
  return static_cast<Op>(buf[0]);
}

sim::Payload encode_request(const SubmitRequest& m) {
  net::Writer w = begin(Op::kSubmit);
  encode_job_spec(w, m.spec);
  w.u64(m.forced_id);
  return w.take();
}
SubmitRequest decode_submit(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kSubmit);
  SubmitRequest m;
  m.spec = decode_job_spec(r);
  m.forced_id = r.u64();
  r.expect_done();
  return m;
}

sim::Payload encode_request(const StatRequest& m) {
  net::Writer w = begin(Op::kStat);
  w.u64(m.job_id);
  w.boolean(m.include_complete);
  return w.take();
}
StatRequest decode_stat(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kStat);
  StatRequest m;
  m.job_id = r.u64();
  m.include_complete = r.boolean();
  r.expect_done();
  return m;
}

sim::Payload encode_request(const DeleteRequest& m) {
  net::Writer w = begin(Op::kDelete);
  w.u64(m.job_id);
  return w.take();
}
DeleteRequest decode_delete(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kDelete);
  DeleteRequest m{r.u64()};
  r.expect_done();
  return m;
}

sim::Payload encode_request(const SignalRequest& m) {
  net::Writer w = begin(Op::kSignal);
  w.u64(m.job_id);
  w.i64(m.signal);
  return w.take();
}
SignalRequest decode_signal(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kSignal);
  SignalRequest m;
  m.job_id = r.u64();
  m.signal = static_cast<int32_t>(r.i64());
  r.expect_done();
  return m;
}

sim::Payload encode_request(const HoldRequest& m) {
  net::Writer w = begin(Op::kHold);
  w.u64(m.job_id);
  return w.take();
}
HoldRequest decode_hold(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kHold);
  HoldRequest m{r.u64()};
  r.expect_done();
  return m;
}

sim::Payload encode_request(const ReleaseRequest& m) {
  net::Writer w = begin(Op::kRelease);
  w.u64(m.job_id);
  return w.take();
}
ReleaseRequest decode_release(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kRelease);
  ReleaseRequest m{r.u64()};
  r.expect_done();
  return m;
}

sim::Payload encode_request(const PreemptRequest& m) {
  net::Writer w = begin(Op::kPreempt);
  w.u64(m.job_id);
  return w.take();
}
PreemptRequest decode_preempt(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kPreempt);
  PreemptRequest m{r.u64()};
  r.expect_done();
  return m;
}

sim::Payload encode_request(const DumpStateRequest&) {
  return begin(Op::kDumpState).take();
}

sim::Payload encode_request(const LoadStateRequest& m) {
  net::Writer w = begin(Op::kLoadState);
  w.bytes(m.state);
  return w.take();
}
LoadStateRequest decode_load_state(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kLoadState);
  LoadStateRequest m{r.bytes()};
  r.expect_done();
  return m;
}

sim::Payload encode_request(const MomLaunchRequest& m) {
  net::Writer w = begin(Op::kMomLaunch);
  encode_job(w, m.job);
  w.u32(m.server_host);
  return w.take();
}
MomLaunchRequest decode_mom_launch(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kMomLaunch);
  MomLaunchRequest m;
  m.job = decode_job(r);
  m.server_host = r.u32();
  r.expect_done();
  return m;
}

sim::Payload encode_request(const MomKillRequest& m) {
  net::Writer w = begin(Op::kMomKill);
  w.u64(m.job_id);
  w.u32(m.server_host);
  w.boolean(m.quiet);
  return w.take();
}
MomKillRequest decode_mom_kill(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kMomKill);
  MomKillRequest m;
  m.job_id = r.u64();
  m.server_host = r.u32();
  m.quiet = r.boolean();
  r.expect_done();
  return m;
}

sim::Payload encode_request(const MomEmuCompleteRequest& m) {
  net::Writer w = begin(Op::kMomEmuComplete);
  w.u64(m.job_id);
  w.i64(m.exit_code);
  return w.take();
}
MomEmuCompleteRequest decode_mom_emu_complete(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kMomEmuComplete);
  MomEmuCompleteRequest m;
  m.job_id = r.u64();
  m.exit_code = static_cast<int32_t>(r.i64());
  r.expect_done();
  return m;
}

sim::Payload encode_request(const MomPingRequest& m) {
  net::Writer w = begin(Op::kMomPing);
  w.u32(m.server_host);
  w.u64(m.seq);
  return w.take();
}
MomPingRequest decode_mom_ping(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kMomPing);
  MomPingRequest m;
  m.server_host = r.u32();
  m.seq = r.u64();
  r.expect_done();
  return m;
}

sim::Payload encode_request(const JobReport& m) {
  net::Writer w = begin(Op::kJobReport);
  w.u64(m.job_id);
  w.i64(m.exit_code);
  w.boolean(m.cancelled);
  w.i64(m.start_time.us);
  w.i64(m.end_time.us);
  w.u32(m.mom_host);
  return w.take();
}
JobReport decode_job_report(const sim::Payload& buf) {
  net::Reader r = open(buf, Op::kJobReport);
  JobReport m;
  m.job_id = r.u64();
  m.exit_code = static_cast<int32_t>(r.i64());
  m.cancelled = r.boolean();
  m.start_time = sim::Time{r.i64()};
  m.end_time = sim::Time{r.i64()};
  m.mom_host = r.u32();
  r.expect_done();
  return m;
}

// -- responses ---------------------------------------------------------------

sim::Payload encode_response(const SubmitResponse& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(m.status));
  w.u64(m.job_id);
  w.u32(m.count);
  return w.take();
}
SubmitResponse decode_submit_response(const sim::Payload& buf) {
  net::Reader r(buf);
  SubmitResponse m;
  m.status = static_cast<Status>(r.u8());
  m.job_id = r.u64();
  m.count = r.u32();
  r.expect_done();
  return m;
}

StatWriter::StatWriter(Status status, uint32_t count) {
  w_.u8(static_cast<uint8_t>(status));
  w_.u32(count);
}

sim::Payload encode_response(const StatResponse& m) {
  StatWriter out(m.status, static_cast<uint32_t>(m.jobs.size()));
  for (const Job& job : m.jobs) out.add(job);
  return out.finish();
}
StatResponse decode_stat_response(const sim::Payload& buf) {
  net::Reader r(buf);
  StatResponse m;
  m.status = static_cast<Status>(r.u8());
  uint32_t n = r.u32();
  if (n > r.remaining()) throw net::WireError("vector count exceeds buffer");
  m.jobs.reserve(n);
  for (uint32_t i = 0; i < n; ++i)
    m.jobs.push_back(decode_job(r, m.jobs.empty() ? nullptr : &m.jobs.back()));
  r.expect_done();
  return m;
}

sim::Payload encode_response(const SimpleResponse& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(m.status));
  return w.take();
}
SimpleResponse decode_simple_response(const sim::Payload& buf) {
  net::Reader r(buf);
  SimpleResponse m;
  m.status = static_cast<Status>(r.u8());
  r.expect_done();
  return m;
}

sim::Payload encode_response(const DumpStateResponse& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(m.status));
  w.bytes(m.state);
  return w.take();
}
DumpStateResponse decode_dump_state_response(const sim::Payload& buf) {
  net::Reader r(buf);
  DumpStateResponse m;
  m.status = static_cast<Status>(r.u8());
  m.state = r.bytes();
  r.expect_done();
  return m;
}

sim::Payload encode_response(const MomLaunchResponse& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(m.status));
  w.boolean(m.emulated);
  return w.take();
}
MomLaunchResponse decode_mom_launch_response(const sim::Payload& buf) {
  net::Reader r(buf);
  MomLaunchResponse m;
  m.status = static_cast<Status>(r.u8());
  m.emulated = r.boolean();
  r.expect_done();
  return m;
}

sim::Payload encode_response(const MomPingResponse& m) {
  net::Writer w;
  w.u8(static_cast<uint8_t>(m.status));
  w.u64(m.seq);
  w.u32(m.running_jobs);
  return w.take();
}
MomPingResponse decode_mom_ping_response(const sim::Payload& buf) {
  net::Reader r(buf);
  MomPingResponse m;
  m.status = static_cast<Status>(r.u8());
  m.seq = r.u64();
  m.running_jobs = r.u32();
  r.expect_done();
  return m;
}

}  // namespace pbs
