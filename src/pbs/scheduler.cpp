#include "pbs/scheduler.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace pbs {

bool NodeState::has(JobId id) const {
  return std::find(running.begin(), running.end(), id) != running.end();
}

void NodeState::assign(JobId id) { running.push_back(id); }

void NodeState::release(JobId id) {
  running.erase(std::remove(running.begin(), running.end(), id),
                running.end());
}

bool NodeState::satisfies(const JobSpec& spec) const {
  const std::string& type = spec.node_type();
  if (!type.empty() && type != attrs.type) return false;
  for (const std::string& f : spec.features()) {
    if (std::find(attrs.features.begin(), attrs.features.end(), f) ==
        attrs.features.end())
      return false;
  }
  return true;
}

FreePool make_free_pool(const std::vector<NodeState>& nodes) {
  FreePool pool;
  for (const NodeState& n : nodes) {
    if (n.up && n.free_slots() > 0) pool.push_back(FreeSlot{&n, n.free_slots()});
  }
  return pool;
}

size_t eligible_hosts(const FreePool& pool, const JobSpec& spec) {
  size_t count = 0;
  for (const FreeSlot& s : pool) {
    if (s.free > 0 && s.node->satisfies(spec)) ++count;
  }
  return count;
}

namespace {
std::string env_or(const char* var, const char* fallback) {
  const char* v = std::getenv(var);
  return (v != nullptr && *v != '\0') ? std::string(v) : std::string(fallback);
}
}  // namespace

std::string SchedulerConfig::sched_policy_from_env() {
  return env_or("JOSHUA_SCHED", "fifo");
}

std::string SchedulerConfig::node_selector_from_env() {
  return env_or("JOSHUA_SELECT", "firstfit");
}

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config)) {
  policy_ = find_sched_policy(config_.policy);
  if (policy_ == nullptr) {
    JLOG(kWarn, "pbs") << "unknown scheduling policy '" << config_.policy
                       << "', falling back to fifo";
    config_.policy = "fifo";
    policy_ = find_sched_policy("fifo");
  }
  selector_ = find_node_selector(config_.selector);
  if (selector_ == nullptr) {
    JLOG(kWarn, "pbs") << "unknown node selector '" << config_.selector
                       << "', falling back to firstfit";
    config_.selector = "firstfit";
    selector_ = find_node_selector("firstfit");
  }
}

SchedDecisions Scheduler::cycle(const std::map<JobId, Job>& jobs,
                                const std::vector<NodeState>& nodes,
                                sim::Time now) const {
  SchedContext ctx{jobs, nodes, now, config_, *selector_};
  return policy_->cycle(ctx);
}

}  // namespace pbs
