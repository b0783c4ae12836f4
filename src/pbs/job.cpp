#include "pbs/job.h"

namespace pbs {

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kHeld: return "HELD";
    case JobState::kWaiting: return "WAITING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kExiting: return "EXITING";
    case JobState::kComplete: return "COMPLETE";
  }
  return "?";
}

char state_letter(JobState s) {
  switch (s) {
    case JobState::kQueued: return 'Q';
    case JobState::kHeld: return 'H';
    case JobState::kWaiting: return 'W';
    case JobState::kRunning: return 'R';
    case JobState::kExiting: return 'E';
    case JobState::kComplete: return 'C';
  }
  return '?';
}

std::string job_id_string(JobId id, const std::string& server_suffix) {
  return std::to_string(id) + "." + server_suffix;
}

namespace {

const JobExtras& no_extras() {
  static const JobExtras none;
  return none;
}

const JobExtras& extras_of(const JobSpec& spec) {
  return spec.extras ? *spec.extras : no_extras();
}

/// One spec on the wire, with the name and index the record carries.
void encode_spec_as(net::Writer& w, const JobSpec& spec, std::string_view name,
                    int32_t array_index) {
  w.str(name);
  w.str(spec.user);
  w.str(spec.queue);
  w.u32(spec.nodes);
  w.i64(spec.walltime.us);
  w.i64(spec.run_time.us);
  w.i64(spec.priority);
  w.u32(spec.replicas);
  w.str(spec.script());
  w.str(spec.node_type());
  w.vec(spec.features(),
        [](net::Writer& w2, const std::string& f) { w2.str(f); });
  w.u32(spec.array_count);
  w.i64(array_index);
}

std::string member_name(const std::string& base, int32_t index) {
  return base + "[" + std::to_string(index) + "]";
}

}  // namespace

const std::string& JobSpec::script() const { return extras_of(*this).script; }
const std::string& JobSpec::node_type() const {
  return extras_of(*this).node_type;
}
const std::vector<std::string>& JobSpec::features() const {
  return extras_of(*this).features;
}

bool JobSpec::operator==(const JobSpec& o) const {
  return name == o.name && user == o.user && queue == o.queue &&
         nodes == o.nodes && replicas == o.replicas &&
         walltime == o.walltime && run_time == o.run_time &&
         priority == o.priority && array_count == o.array_count &&
         array_index == o.array_index && extras_of(*this) == extras_of(o);
}

std::string Job::name() const {
  return array_index < 0 ? spec->name : member_name(spec->name, array_index);
}

const std::shared_ptr<const JobSpec>& Job::default_spec() {
  static const std::shared_ptr<const JobSpec> spec =
      std::make_shared<const JobSpec>();
  return spec;
}

void encode_job_spec(net::Writer& w, const JobSpec& spec) {
  encode_spec_as(w, spec, spec.name, spec.array_index);
}

JobSpec decode_job_spec(net::Reader& r) {
  JobSpec spec;
  spec.name = r.str();
  spec.user = r.str();
  spec.queue = r.str();
  spec.nodes = r.u32();
  spec.walltime = sim::Duration{r.i64()};
  spec.run_time = sim::Duration{r.i64()};
  spec.priority = static_cast<int32_t>(r.i64());
  spec.replicas = r.u32();
  JobExtras e;
  e.script = r.str();
  e.node_type = r.str();
  e.features = r.vec<std::string>([](net::Reader& r2) { return r2.str(); });
  if (e != no_extras())
    spec.extras = std::make_shared<const JobExtras>(std::move(e));
  spec.array_count = r.u32();
  spec.array_index = static_cast<int32_t>(r.i64());
  return spec;
}

void encode_job(net::Writer& w, const Job& job) {
  w.u64(job.id);
  if (job.array_index < 0)
    encode_job_spec(w, *job.spec);
  else
    encode_spec_as(w, *job.spec, job.name(), job.array_index);
  w.u8(static_cast<uint8_t>(job.state));
  w.i64(job.submit_time.us);
  w.i64(job.start_time.us);
  w.i64(job.end_time.us);
  w.i64(job.exit_code);
  w.boolean(job.cancelled);
  w.u64(job.queue_rank);
  w.u32(job.exec_host);
  w.vec(job.replica_hosts,
        [](net::Writer& w2, sim::HostId h) { w2.u32(h); });
}

Job decode_job(net::Reader& r, const Job* prev) {
  Job job;
  job.id = r.u64();
  JobSpec spec = decode_job_spec(r);
  // A sub-job's record names it "name[i]": keep the array's spec, unindexed.
  if (spec.array_index >= 0) {
    std::string suffix = member_name("", spec.array_index);
    if (spec.name.ends_with(suffix)) {
      spec.name.resize(spec.name.size() - suffix.size());
      job.array_index = spec.array_index;
      spec.array_index = -1;
    }
  }
  if (prev != nullptr && *prev->spec == spec) {
    job.spec = prev->spec;
  } else {
    job.spec = std::make_shared<const JobSpec>(std::move(spec));
  }
  job.state = static_cast<JobState>(r.u8());
  job.submit_time = sim::Time{r.i64()};
  job.start_time = sim::Time{r.i64()};
  job.end_time = sim::Time{r.i64()};
  job.exit_code = static_cast<int32_t>(r.i64());
  job.cancelled = r.boolean();
  job.queue_rank = r.u64();
  job.exec_host = r.u32();
  job.replica_hosts =
      r.vec<sim::HostId>([](net::Reader& r2) { return r2.u32(); });
  return job;
}

}  // namespace pbs
