// Per-layer replay. Layers inside PowServer cannot be timed from the
// benchmark's files without editing src/, so a traced epoch records every
// message the server received (bytes, source, arrival instant) and every
// message the clients received; this file feeds those inputs through each
// layer's public entry point, on fresh instances, at the recorded
// simulated time. The full-server replay must land on exactly the
// epoch's ServerStats, which is what ties the layer numbers to the run.

#include <algorithm>
#include <chrono>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "features/ip_address.hpp"
#include "framework/protocol.hpp"
#include "pow/batch_verifier.hpp"
#include "pow/generator.hpp"
#include "pow/verifier.hpp"
#include "reputation/sharded_cache.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kClientBase = 0x0A000000;  // 10.0.0.0
constexpr int kPasses = 5;

volatile std::uint64_t g_sink = 0;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Median cost of one back-to-back pair of clock reads; subtracted from
/// per-call timings of stateful calls that cannot be timed in a loop.
double timer_overhead_ns() {
  std::vector<double> samples(2001);
  for (double& sample : samples) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    sample = ns_between(a, b);
  }
  return median(samples);
}

/// Mean µs per call of a stateless body(i), i in [0, n): the median of
/// kPasses timed passes over all inputs.
template <typename Body>
double loop_us(std::size_t n, Body&& body) {
  if (n == 0) return 0.0;
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sink += body(i);
    const auto t1 = Clock::now();
    g_sink = g_sink + sink;
    passes.push_back(ns_between(t0, t1) / static_cast<double>(n) / 1e3);
  }
  return median(passes);
}

/// Times one stateful call, net of the clock-read overhead.
template <typename Fn>
double call_us(double overhead_ns, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  return std::max(0.0, ns_between(t0, t1) - overhead_ns) / 1e3;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string ip_of(std::uint32_t client) {
  return features::IpAddress(kClientBase + client).to_string();
}

struct Issued {
  std::string ip;
  std::uint64_t request_id = 0;
  double score = 0.0;
  unsigned difficulty = 0;
  common::TimePoint at{};
};

}  // namespace

bool replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                   const Recording& recording,
                   const framework::ServerStats& expected, std::size_t batch,
                   std::vector<Metric>& out) {
  const double overhead_ns = timer_overhead_ns();
  const auto emit = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // ---- protocol: decode and encode, by message type --------------------
  static constexpr const char* kTypeNames[] = {"request", "challenge",
                                               "submission", "response"};
  std::vector<const common::Bytes*> by_type[4];
  for (const SentMessage& m : recording.to_server) {
    by_type[static_cast<int>(*framework::peek_type(m.bytes)) - 1].push_back(
        &m.bytes);
  }
  for (const common::Bytes& b : recording.to_client) {
    by_type[static_cast<int>(*framework::peek_type(b)) - 1].push_back(&b);
  }
  for (int t = 0; t < 4; ++t) {
    const auto& wires = by_type[t];
    std::vector<framework::Message> decoded;
    decoded.reserve(wires.size());
    for (const common::Bytes* w : wires) decoded.push_back(*framework::decode(*w));
    emit(std::string("protocol.decode_us.") + kTypeNames[t],
         loop_us(wires.size(),
                 [&](std::size_t i) {
                   return framework::decode(*wires[i])->index();
                 }),
         "us");
    emit(std::string("protocol.encode_us.") + kTypeNames[t],
         loop_us(decoded.size(),
                 [&](std::size_t i) {
                   return std::visit(
                       [](const auto& m) { return m.serialize().size(); },
                       decoded[i]);
                 }),
         "us");
  }

  // ---- the recorded server-bound messages, decoded once -----------------
  struct Arrival {
    framework::Message message;
    std::string ip;
    common::TimePoint at{};
  };
  std::vector<Arrival> arrivals;
  arrivals.reserve(recording.to_server.size());
  for (const SentMessage& m : recording.to_server) {
    arrivals.push_back({*framework::decode(m.bytes), ip_of(m.client), m.arrival});
  }
  std::vector<const Arrival*> requests;
  std::vector<const Arrival*> submissions;
  for (const Arrival& a : arrivals) {
    (std::holds_alternative<framework::Request>(a.message) ? requests
                                                           : submissions)
        .push_back(&a);
  }

  // ---- features: address parsing ----------------------------------------
  emit("features.ip_parse_us",
       loop_us(requests.size(),
               [&](std::size_t i) {
                 return features::IpAddress::parse(requests[i]->ip)->value();
               }),
       "us");

  // ---- framework server: the whole PowServer, message by message --------
  std::vector<double> on_request_us;
  std::vector<double> on_submission_us;
  std::vector<Issued> issued;
  std::uint64_t cache_hits = 0;
  bool stats_match = false;
  {
    common::ManualClock clock;
    framework::PowServer server(clock, *inputs.model, bench_policy(),
                                spec.server);
    for (const Arrival& a : arrivals) {
      clock.set(a.at);
      // The async front end feeds each popped message's (simulated, hence
      // zero) queue sojourn into the ladder before the server sees it.
      if (spec.async && a.at != common::TimePoint{}) {
        server.note_queue_sojourn(server.now_ms(), 0.0);
      }
      if (const auto* request = std::get_if<framework::Request>(&a.message)) {
        framework::Request effective = *request;
        effective.client_ip = a.ip;
        framework::ScoringTrace trace;
        std::optional<std::variant<framework::Challenge, framework::Response>>
            outcome;
        on_request_us.push_back(call_us(overhead_ns, [&] {
          outcome.emplace(server.on_request(effective, &trace));
        }));
        if (std::holds_alternative<framework::Challenge>(*outcome)) {
          cache_hits += trace.from_cache ? 1 : 0;
          issued.push_back({a.ip, request->request_id, trace.score,
                            trace.difficulty, a.at});
        }
      } else {
        const auto& submission = std::get<framework::Submission>(a.message);
        on_submission_us.push_back(call_us(overhead_ns, [&] {
          g_sink = g_sink + static_cast<std::uint64_t>(
                                server.on_submission(submission, a.ip).status);
        }));
      }
    }
    stats_match = server.stats() == expected;
  }
  emit("server.on_request_us_p50", quantile(on_request_us, 0.5), "us");
  emit("server.on_request_us_p99", quantile(on_request_us, 0.99), "us");
  emit("server.on_submission_us_p50", quantile(on_submission_us, 0.5), "us");
  emit("server.on_submission_us_p99", quantile(on_submission_us, 0.99), "us");

  // ---- framework rate limiter --------------------------------------------
  {
    double allow_us = 0.0;
    std::size_t tracked = 0;
    if (spec.server.rate_limiter_enabled) {
      common::ManualClock clock;
      framework::RateLimiter limiter(clock, spec.server.rate_limiter);
      std::vector<double> samples;
      for (const Arrival* a : requests) {
        clock.set(a->at);
        const auto ip = *features::IpAddress::parse(a->ip);
        samples.push_back(call_us(overhead_ns, [&] {
          g_sink = g_sink + (limiter.allow(ip) ? 1 : 0);
        }));
      }
      allow_us = mean(samples);
      tracked = limiter.tracked_ips();
    }
    emit("rate_limiter.allow_us", allow_us, "us");
    emit("rate_limiter.tracked_ips", static_cast<double>(tracked), "count");
  }

  // ---- reputation: model scoring and the sharded cache ------------------
  emit("reputation.score_us",
       loop_us(requests.size(),
               [&](std::size_t i) {
                 const auto& r = std::get<framework::Request>(requests[i]->message);
                 return static_cast<std::uint64_t>(
                     inputs.model->score(r.features) * 1e6);
               }),
       "us");
  emit("reputation.cache_hit_ratio",
       issued.empty() ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(issued.size()),
       "ratio");
  emit("reputation.cache_lookups", static_cast<double>(issued.size()), "count");
  {
    common::ManualClock clock;
    reputation::ShardedReputationCache cache(clock, spec.server.cache,
                                             spec.server.cache_shards);
    std::vector<double> lookup_us;
    std::vector<double> update_us;
    for (const Issued& i : issued) {
      clock.set(i.at);
      const auto ip = *features::IpAddress::parse(i.ip);
      std::optional<double> hit;
      lookup_us.push_back(call_us(overhead_ns, [&] { hit = cache.lookup(ip); }));
      if (!hit) {
        update_us.push_back(call_us(overhead_ns, [&] {
          g_sink = g_sink + static_cast<std::uint64_t>(cache.update(ip, i.score));
        }));
      }
    }
    emit("reputation.cache_lookup_us", mean(lookup_us), "us");
    emit("reputation.cache_update_us", mean(update_us), "us");
    emit("reputation.cache_entries", static_cast<double>(cache.size()), "count");
  }

  // ---- policy and puzzle issuance ---------------------------------------
  {
    common::ManualClock clock;
    pow::PuzzleGenerator generator(clock, spec.server.master_secret);
    std::vector<common::Rng> streams;
    streams.reserve(issued.size());
    for (const Issued& i : issued) {
      streams.push_back(common::stream_rng(
          spec.server.policy_seed,
          generator.derive_puzzle_id(i.ip, i.request_id)));
    }
    emit("policy.difficulty_us",
         loop_us(issued.size(),
                 [&](std::size_t k) {
                   common::Rng rng = streams[k];
                   return bench_policy().difficulty(issued[k].score, rng);
                 }),
         "us");
    std::vector<double> issue_us;
    for (const Issued& i : issued) {
      clock.set(i.at);
      const std::uint64_t id = generator.derive_puzzle_id(i.ip, i.request_id);
      issue_us.push_back(call_us(overhead_ns, [&] {
        g_sink = g_sink + generator.issue_with_id(id, i.ip, i.difficulty).puzzle_id;
      }));
    }
    emit("pow.issue_us", mean(issue_us), "us");
  }

  // ---- pow: single verification, split by outcome ----------------------
  {
    common::ManualClock clock;
    pow::Verifier verifier(clock, spec.server.master_secret,
                           spec.server.verifier);
    std::vector<double> by_outcome[4];  // ok, bad nonce, replay, forged
    for (const Arrival* a : submissions) {
      clock.set(a->at);
      const auto& s = std::get<framework::Submission>(a->message);
      std::optional<common::Status> status;
      const double us = call_us(overhead_ns, [&] {
        status.emplace(verifier.verify(s.puzzle, s.solution, a->ip));
      });
      if (status->ok()) {
        by_outcome[0].push_back(us);
      } else if (status->error().code == common::ErrorCode::kBadSolution) {
        by_outcome[1].push_back(us);
      } else if (status->error().code == common::ErrorCode::kReplay) {
        by_outcome[2].push_back(us);
      } else if (status->error().code == common::ErrorCode::kInvalidArgument) {
        by_outcome[3].push_back(us);
      }
    }
    emit("pow.verify_us.ok", mean(by_outcome[0]), "us");
    emit("pow.verify_us.bad_nonce", mean(by_outcome[1]), "us");
    emit("pow.verify_us.replay", mean(by_outcome[2]), "us");
    emit("pow.verify_us.forged", mean(by_outcome[3]), "us");
    emit("pow.replay_entries", static_cast<double>(verifier.replay_entries()),
         "count");
  }

  // ---- pow: batch verification at the observed batch size --------------
  {
    common::ManualClock clock;
    pow::Verifier verifier(clock, spec.server.master_secret,
                           spec.server.verifier);
    pow::BatchVerifier batch_verifier(
        verifier, std::max<std::size_t>(1, spec.server.verify_threads));
    double total_us = 0.0;
    for (std::size_t begin = 0; begin < submissions.size(); begin += batch) {
      const std::size_t end = std::min(submissions.size(), begin + batch);
      std::vector<pow::VerificationJob> jobs;
      for (std::size_t k = begin; k < end; ++k) {
        const auto& s = std::get<framework::Submission>(submissions[k]->message);
        jobs.push_back({&s.puzzle, &s.solution, &submissions[k]->ip});
      }
      clock.set(submissions[end - 1]->at);
      total_us += call_us(overhead_ns, [&] {
        g_sink = g_sink + batch_verifier.verify_batch(jobs).size();
      });
    }
    emit("pow.batch_verify_us_per_msg",
         submissions.empty() ? 0.0
                             : total_us / static_cast<double>(submissions.size()),
         "us");
    emit("pow.batch_size", static_cast<double>(batch), "count");
  }
  return stats_match;
}

}  // namespace perfbench
