// The three workloads and their seeded input generation. Why each one
// exists is written up in perfbench/README.md; the sizes here are what
// that rationale asks for (cache/tracker capacities below or above the
// population, thread budget within four hardware threads).

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "features/synthetic.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTrainPerClass = 400;
constexpr std::uint64_t kFixedSeed = 42;

WorkloadSpec base_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.server.master_secret = common::bytes_of("perfbench-master-secret");
  spec.server.verify_threads = 1;
  return spec;
}

}  // namespace

WorkloadSpec make_spec(const std::string& name, bool smoke) {
  WorkloadSpec spec = base_spec(name);
  if (name == "benign_steady") {
    // A few hundred repeat clients far below every server capacity: the
    // reputation cache hits after each client's first request and every
    // verification succeeds. A small share of clients carry malicious
    // features but solve honestly, so the throttle ratio exists here too.
    spec.benign_clients = smoke ? 20 : 240;
    spec.attacker_clients = smoke ? 2 : 48;
    spec.benign_requests_min = spec.benign_requests_max = smoke ? 4 : 32;
    spec.attacker_requests_min = spec.attacker_requests_max = smoke ? 4 : 32;
  } else if (name == "churn_attack") {
    // One- or few-shot clients arriving over time, a population past
    // the reputation-cache and rate-limiter tracking capacities, and
    // attackers that mix honest solves with junk submissions.
    spec.benign_clients = smoke ? 60 : 8000;
    spec.attacker_clients = smoke ? 8 : 900;
    spec.benign_requests_min = spec.benign_requests_max = 1;
    spec.attacker_requests_min = 2;
    spec.attacker_requests_max = 5;
    spec.junk_share = 0.5;
    spec.paced = true;
    spec.arrivals.process = sim::ArrivalProcess::kPoisson;
    spec.arrivals.mean_interarrival_ms = 500.0;
    spec.server.cache.max_entries = smoke ? 16 : 256;
    spec.server.rate_limiter_enabled = true;
    spec.server.rate_limiter.tokens_per_second = 1.0;
    spec.server.rate_limiter.burst = 2.0;
    spec.server.rate_limiter.max_tracked_ips = smoke ? 16 : 256;
  } else if (name == "async_burst") {
    // Flash crowd through the async front end with overload control
    // armed. Thread budget: the pump (this thread) + 2 drain shards + 1
    // verify worker = 4.
    spec.async = true;
    spec.benign_clients = smoke ? 40 : 1600;
    spec.attacker_clients = smoke ? 10 : 400;
    spec.benign_requests_min = spec.benign_requests_max = smoke ? 3 : 6;
    spec.attacker_requests_min = spec.attacker_requests_max = smoke ? 3 : 6;
    spec.paced = true;
    spec.arrivals.process = sim::ArrivalProcess::kFlashCrowd;
    spec.arrivals.mean_interarrival_ms = 400.0;
    spec.arrivals.flash_at_ms = 600.0;
    spec.arrivals.flash_factor = 10.0;
    spec.weight_alpha = 1.5;
    spec.send_tick_ms = 1;
    spec.front_end.drain_shards = 2;
    spec.front_end.queue_capacity = 1 << 16;  // never overflows: exact replay
    spec.front_end.max_batch = 64;
    spec.server.default_deadline = std::chrono::seconds(2);
    spec.server.degrade.enabled = true;
    spec.server.degrade.arrival_ref_per_s = smoke ? 200.0 : 5000.0;
    spec.server.degrade.l1_difficulty_floor = 10;
    spec.server.degrade.l1_ttl = std::chrono::seconds(5);
    spec.retry.enabled = true;
    spec.retry.timeout = std::chrono::seconds(2);
    spec.retry.max_attempts = 3;
    spec.retry.backoff_base = std::chrono::milliseconds(50);
    spec.retry.backoff_cap = std::chrono::seconds(1);
    spec.retry.request_deadline = std::chrono::seconds(2);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

template <typename T>
void shuffle(std::vector<T>& items, common::Rng& rng) {  // Fisher-Yates
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_u64(0, i - 1));
    std::swap(items[i - 1], items[j]);
  }
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  const features::SyntheticTraceGenerator gen;
  // The model and the multiset of client feature profiles are fixed: the
  // model is part of the server under test, and a fixed profile pool keeps
  // the workload mix (hence each class's difficulty distribution)
  // identical across seeds. The seed assigns profiles to addresses and
  // draws everything else: request counts, junk kinds, think times, and
  // through the addresses every puzzle and solve.
  common::Rng fixed_rng(kFixedSeed);
  inputs.model = std::make_unique<reputation::DabrModel>();
  inputs.model->fit(gen.generate(kTrainPerClass, kTrainPerClass, fixed_rng));
  std::vector<features::FeatureVector> profiles[2];
  for (int attacker = 0; attacker < 2; ++attacker) {
    const std::size_t count =
        attacker != 0 ? spec.attacker_clients : spec.benign_clients;
    for (std::size_t i = 0; i < count; ++i) {
      profiles[attacker].push_back(gen.sample(attacker != 0, fixed_rng));
    }
  }

  common::Rng rng(seed);
  const std::size_t n = spec.benign_clients + spec.attacker_clients;
  std::vector<char> attacker(n, 0);
  std::fill(attacker.begin(),
            attacker.begin() + static_cast<std::ptrdiff_t>(spec.attacker_clients),
            1);
  shuffle(attacker, rng);
  shuffle(profiles[0], rng);
  shuffle(profiles[1], rng);

  inputs.clients.resize(n);
  inputs.rt_offset.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClientInput& client = inputs.clients[i];
    client.attacker = attacker[i] != 0;
    client.features = profiles[client.attacker ? 1 : 0].back();
    profiles[client.attacker ? 1 : 0].pop_back();
    const std::uint32_t lo =
        client.attacker ? spec.attacker_requests_min : spec.benign_requests_min;
    const std::uint32_t hi =
        client.attacker ? spec.attacker_requests_max : spec.benign_requests_max;
    const auto count = static_cast<std::size_t>(rng.uniform_u64(lo, hi));
    client.kinds.assign(count, Kind::kHonest);
    if (client.attacker && spec.junk_share > 0.0) {
      for (Kind& kind : client.kinds) {
        if (rng.bernoulli(spec.junk_share)) {
          kind = static_cast<Kind>(1 + rng.uniform_u64(0, 2));
        }
      }
    }
    inputs.rt_offset[i] = inputs.round_trips;
    inputs.round_trips += count;
  }

  if (spec.paced) {
    sim::PopulationConfig pc;
    pc.clients = n;
    pc.base_ip = "10.0.0.0";
    pc.seed = seed;
    pc.arrivals = spec.arrivals;
    pc.weight_alpha = spec.weight_alpha;
    inputs.population = std::make_unique<sim::ClientPopulation>(std::move(pc));
  }
  return inputs;
}

}  // namespace perfbench
