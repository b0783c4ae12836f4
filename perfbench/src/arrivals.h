// Open-loop arrival generator. It lives in the benchmark, not in the
// program, so a change to the program cannot change the inputs: the command
// stream is a pure function of (seed, phase parameters).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and fully specified here.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential with the given rate (events per unit).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  uint64_t state_;
};

enum class Kind : uint8_t { kSub = 0, kStat, kStatAll, kDel };
constexpr int kKinds = 4;
inline const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSub: return "jsub";
    case Kind::kStat: return "jstat";
    case Kind::kStatAll: return "jstat_all";
    case Kind::kDel: return "jdel";
  }
  return "?";
}

/// Relative weights of the command kinds in a phase.
struct Mix {
  double sub = 1.0;
  double stat = 0.0;
  double stat_all = 0.0;
  double del = 0.0;
};

struct Arrival {
  int64_t due_us = 0;
  Kind kind = Kind::kSub;
  uint32_t user = 0;
  uint64_t pick = 0;  ///< random draw used to choose the command's target
};

/// Poisson arrivals at `rate_per_s` over [start_us, end_us). Users are
/// drawn uniformly from [0, users); each user is bound to one rotation of
/// the head list by the front end.
inline std::vector<Arrival> open_loop(Rng& rng, int64_t start_us,
                                      int64_t end_us, double rate_per_s,
                                      const Mix& mix, uint32_t users) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0) return out;
  const double total = mix.sub + mix.stat + mix.stat_all + mix.del;
  double t = static_cast<double>(start_us);
  for (;;) {
    t += rng.exponential(rate_per_s) * 1e6;
    if (t >= static_cast<double>(end_us)) break;
    Arrival a;
    a.due_us = static_cast<int64_t>(t);
    double k = rng.uniform() * total;
    if (k < mix.sub) {
      a.kind = Kind::kSub;
    } else if (k < mix.sub + mix.stat) {
      a.kind = Kind::kStat;
    } else if (k < mix.sub + mix.stat + mix.stat_all) {
      a.kind = Kind::kStatAll;
    } else {
      a.kind = Kind::kDel;
    }
    a.user = static_cast<uint32_t>(rng.next() % users);
    a.pick = rng.next();
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
