#include "fed/router.h"

#include <algorithm>
#include <iterator>

#include "sim/calibration.h"
#include "sim/network.h"

namespace fed {

Router::Router(sim::Network& net, sim::HostId host, sim::Port first_port,
               const ShardMap& map,
               const std::vector<std::vector<sim::Endpoint>>& shard_heads,
               const sim::Calibration& cal)
    : map_(&map) {
  for (uint32_t s = 0; s < map.shard_count(); ++s) {
    joshua::ClientConfig cfg =
        joshua::joshua_client_config_from(cal, shard_heads.at(s));
    clients_.push_back(std::make_unique<joshua::Client>(
        net, host, static_cast<sim::Port>(first_port + s), std::move(cfg)));
  }
  telemetry::Registry& m = net.sim().telemetry().metrics();
  stats_.routed = m.counter("fed.routed");
  stats_.fanouts = m.counter("fed.fanouts");
  stats_.fanout_reads = m.counter("fed.fanout_reads");
  stats_.rejects = m.counter("fed.rejects");
  stats_.mass_deleted = m.counter("fed.mass_deleted");
}

Router::~Router() = default;

uint64_t Router::failovers() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->failovers();
  return total;
}

template <typename Response>
bool Router::route_by_id(pbs::JobId id, uint32_t& shard,
                         std::function<void(std::optional<Response>)>& done) {
  std::optional<uint32_t> owner = map_->owner_of(id);
  if (!owner.has_value()) {
    // No shard's id block contains this id, so no head anywhere could know
    // it: answer kUnknownJob locally rather than burning an ordered slot.
    stats_.rejects.add(1);
    Response resp;
    resp.status = pbs::Status::kUnknownJob;
    if (done) done(resp);
    return false;
  }
  stats_.routed.add(1);
  shard = *owner;
  return true;
}

void Router::jsub(pbs::JobSpec spec,
                  std::function<void(std::optional<pbs::SubmitResponse>)> done) {
  uint32_t shard = map_->place(spec.queue, next_salt_++);
  stats_.routed.add(1);
  clients_[shard]->jsub(std::move(spec), std::move(done));
}

void Router::jstat(pbs::StatRequest req,
                   std::function<void(std::optional<pbs::StatResponse>)> done) {
  if (req.job_id != pbs::kInvalidJob) {
    uint32_t shard = 0;
    if (!route_by_id<pbs::StatResponse>(req.job_id, shard, done)) return;
    clients_[shard]->jstat(std::move(req), std::move(done));
    return;
  }

  // jstat -all: fan out the read to every shard and merge. Each shard's
  // answer is a consistent totally-ordered snapshot of *its* jobs; the
  // merge is only as fresh as the slowest shard, which is the documented
  // cross-shard semantic.
  stats_.fanouts.add(1);
  uint32_t shards = map_->shard_count();
  struct Merge {
    std::vector<std::vector<pbs::Job>> parts;  ///< one listing per shard
    pbs::Status status = pbs::Status::kOk;
    uint32_t pending = 0;
    bool failed = false;
  };
  auto merge = std::make_shared<Merge>();
  merge->parts.resize(shards);
  merge->pending = shards;
  for (uint32_t s = 0; s < shards; ++s) {
    stats_.fanout_reads.add(1);
    clients_[s]->jstat(
        req, [this, merge, s, done](std::optional<pbs::StatResponse> resp) {
          if (!resp.has_value()) {
            merge->failed = true;
          } else {
            if (resp->status != pbs::Status::kOk &&
                merge->status == pbs::Status::kOk)
              merge->status = resp->status;
            merge->parts[s] = std::move(resp->jobs);
          }
          if (--merge->pending > 0) return;
          if (merge->failed) {
            if (done) done(std::nullopt);
            return;
          }
          // Each part is sorted (a shard lists its table in id order) and
          // shard s owns the id block above shard s-1's, so appending the
          // parts in shard order yields ascending ids; each part is freed as
          // soon as it has been moved.
          pbs::StatResponse out;
          out.status = merge->status;
          size_t total = 0;
          for (const auto& part : merge->parts) total += part.size();
          out.jobs.reserve(total);
          for (auto& part : merge->parts) {
            std::move(part.begin(), part.end(), std::back_inserter(out.jobs));
            std::vector<pbs::Job>().swap(part);
          }
          if (done) done(std::move(out));
        });
  }
}

void Router::jdel(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jdel(id, std::move(done));
}

void Router::jhold(pbs::JobId id,
                   std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jhold(id, std::move(done));
}

void Router::jrls(pbs::JobId id,
                  std::function<void(std::optional<pbs::SimpleResponse>)> done) {
  uint32_t shard = 0;
  if (!route_by_id<pbs::SimpleResponse>(id, shard, done)) return;
  clients_[shard]->jrls(id, std::move(done));
}

void Router::jdel_all(std::function<void(std::optional<uint64_t>)> done) {
  // Phase 1: discover live jobs everywhere (incomplete only -- deleting a
  // finished job is a no-op the shard would refuse anyway).
  pbs::StatRequest req;
  req.job_id = pbs::kInvalidJob;
  req.include_complete = false;
  jstat(req, [this, done](std::optional<pbs::StatResponse> resp) {
    if (!resp.has_value()) {
      if (done) done(std::nullopt);
      return;
    }
    // Phase 2: one ordered delete per job at its owning shard. Jobs that
    // finish or vanish between the read and the delete simply answer
    // non-kOk and are not counted -- the count reports deletes the shard
    // actually ordered and applied.
    if (resp->jobs.empty()) {
      if (done) done(0);
      return;
    }
    struct Count {
      uint64_t deleted = 0;
      size_t pending = 0;
    };
    auto count = std::make_shared<Count>();
    count->pending = resp->jobs.size();
    for (const pbs::Job& job : resp->jobs) {
      std::optional<uint32_t> owner = map_->owner_of(job.id);
      if (!owner.has_value()) {  // cannot happen for a shard-reported id
        if (--count->pending == 0 && done) done(count->deleted);
        continue;
      }
      stats_.routed.add(1);
      clients_[*owner]->jdel(
          job.id, [this, count, done](std::optional<pbs::SimpleResponse> r) {
            if (r.has_value() && r->status == pbs::Status::kOk) {
              ++count->deleted;
              stats_.mass_deleted.add(1);
            }
            if (--count->pending == 0 && done) done(count->deleted);
          });
    }
  });
}

}  // namespace fed
