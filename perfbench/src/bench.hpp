#pragma once
/// \file bench.hpp
/// Shared types of the powai benchmark: workload specs, generated
/// inputs, the pre-solved nonce table, per-round-trip outcome records,
/// the span recorder and the per-epoch result.
///
/// One *epoch* is the workload's fixed set of round trips played through
/// a fresh stack (EventLoop, Network, PowServer, optional AsyncFrontEnd)
/// from simulated time zero. Every epoch of a seed is bit-identical in
/// simulated time, so each one must reproduce the reference epoch's
/// outcomes and ServerStats delta exactly; only its wall and CPU time
/// vary.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "features/feature_vector.hpp"
#include "framework/async_front_end.hpp"
#include "framework/retry.hpp"
#include "framework/server.hpp"
#include "policy/linear_policy.hpp"
#include "reputation/dabr.hpp"
#include "sim/population.hpp"

namespace perfbench {

using namespace powai;

/// What an attacker does with one challenge. Honest submissions carry a
/// real pre-solved nonce; the three junk kinds are sent at once, without
/// solving, and the server must reject them.
enum class Kind : std::uint8_t { kHonest, kBadNonce, kReplay, kForged };

/// Everything that defines one workload apart from its seed.
struct WorkloadSpec final {
  std::string name;
  bool async = false;

  std::size_t benign_clients = 0;
  std::size_t attacker_clients = 0;
  std::uint32_t benign_requests_min = 1, benign_requests_max = 1;
  std::uint32_t attacker_requests_min = 1, attacker_requests_max = 1;
  /// Share of attacker submissions that are junk (split evenly across
  /// bad nonce, replay and forged MAC).
  double junk_share = 0.0;

  /// Think time between one client's round trips (sim::ClientPopulation);
  /// unpaced clients send their next request the moment a round trip ends.
  bool paced = false;
  sim::ArrivalConfig arrivals;
  double weight_alpha = 0.0;
  /// Client timer tick: when > 0, sends are deferred to the next multiple
  /// of this many simulated milliseconds.
  std::int64_t send_tick_ms = 0;

  framework::ServerConfig server;
  framework::AsyncFrontEndConfig front_end;
  framework::RetryPolicy retry;

  double hash_cost_us = 38.0;  ///< modelled client per-hash cost
  std::chrono::milliseconds link_latency{15};
};

/// Builds the named workload at full or smoke size; throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec make_spec(const std::string& name, bool smoke);

struct ClientInput final {
  bool attacker = false;
  features::FeatureVector features;
  std::vector<Kind> kinds;  ///< one per round trip (size = round trips)
};

/// The generated workload: fitted model plus one entry per client.
/// Client i lives at 10.0.0.0 + i.
struct Inputs final {
  std::unique_ptr<reputation::DabrModel> model;
  std::vector<ClientInput> clients;
  std::vector<std::size_t> rt_offset;  ///< first round-trip slot per client
  std::size_t round_trips = 0;
  std::unique_ptr<sim::ClientPopulation> population;  ///< paced only
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One pre-solved challenge. The identity fields detect a table miss: a
/// challenge whose puzzle differs from the one the reference epoch saw.
struct NonceEntry final {
  std::uint64_t puzzle_id = 0;
  std::int64_t issued_at_ms = 0;
  unsigned difficulty = 0;
  std::uint64_t nonce = 0;      ///< valid solution
  std::uint64_t bad_nonce = 0;  ///< a nonce known not to solve
  std::uint64_t attempts = 0;   ///< solver probes to reach `nonce`
};

/// Per client, the challenges it receives in order.
using NonceTable = std::vector<std::vector<NonceEntry>>;

/// Client-visible result of one round trip (all retries included).
struct RtRecord final {
  std::uint64_t puzzle_id = 0;  ///< last challenge seen (0 = none)
  std::int64_t latency_ns = 0;  ///< simulated, first send → final response
  std::uint16_t code = 0xffff;  ///< final ErrorCode; 0xffff = unanswered
  std::uint16_t attempts = 0;   ///< request sends
  std::uint16_t difficulty = 0;

  bool operator==(const RtRecord&) const = default;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One wall-clock span. Spans of one round trip share (client, request_id).
struct Span final {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t client = 0;
  std::uint64_t request_id = 0;
};

/// In-memory span recorder; spans are written out when the run ends.
class Tracer final {
 public:
  Tracer();
  std::int32_t begin(const char* name, std::uint32_t client,
                     std::uint64_t request_id);
  void end(std::int32_t index);
  [[nodiscard]] std::vector<Span>& spans() { return spans_; }
  void clear() {
    spans_.clear();
    current_ = -1;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point base_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// A message the bench client sent to the server, kept by traced epochs
/// for the per-layer replay.
struct SentMessage final {
  common::Bytes bytes;
  std::uint32_t client = 0;
  common::TimePoint arrival{};  ///< when it reached the server
};

struct Recording final {
  std::vector<SentMessage> to_server;
  std::vector<common::Bytes> to_client;
};

// ---------------------------------------------------------------------------
// Epoch
// ---------------------------------------------------------------------------

enum class Mode {
  kSolve,  ///< reference: solve inline with pow::Solver, fill the table
  kTable,  ///< timed: answer from the table, no solving
};

struct EpochResult final {
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< process CPU, all threads
  double pump_cpu_s = 0.0;  ///< CPU of the loop / pump thread
  double solve_s = 0.0;     ///< wall spent in the solver (kSolve only)
  std::uint64_t solve_attempts[2] = {0, 0};  ///< [benign, attacker]
  std::uint64_t solves[2] = {0, 0};
  std::uint64_t solve_miss = 0;
  std::uint64_t events = 0;
  std::uint64_t requests_sent = 0;     ///< request sends incl. retries
  std::uint64_t submissions_sent = 0;
  std::uint64_t answered = 0;          ///< messages the clients received
  std::uint64_t server_messages = 0;   ///< messages sent to the server
  std::vector<RtRecord> records;       ///< indexed by Inputs::rt_offset
  std::uint64_t difficulty_sum[2] = {0, 0};  ///< [benign, attacker]
  std::uint64_t challenges[2] = {0, 0};
  framework::ServerStats stats;
  framework::FrontEndStats front_end;
  std::uint64_t overflows = 0;
  framework::DegradeStats degrade;
  std::size_t server_memory_bytes = 0;

  // Traced epochs only.
  std::vector<double> server_step_us;
  double send_us_sum = 0.0;
  std::uint64_t sends = 0;
  double client_self_us_sum = 0.0;
};

struct EpochOptions final {
  Mode mode = Mode::kTable;
  NonceTable* table = nullptr;
  Tracer* tracer = nullptr;        ///< non-null = traced epoch
  Recording* recording = nullptr;  ///< non-null = keep replay inputs
};

/// The policy every workload runs (Policy 2: d = ceil(R) + 5).
[[nodiscard]] const policy::LinearPolicy& bench_policy();

[[nodiscard]] EpochResult run_epoch(const WorkloadSpec& spec,
                                    const Inputs& inputs,
                                    const EpochOptions& options);

// ---------------------------------------------------------------------------
// Per-layer replay
// ---------------------------------------------------------------------------

struct Metric final {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Feeds one recorded epoch through each layer's public entry point on
/// fresh instances at the recorded simulated times, appending per-layer
/// metrics; batch verification runs in batches of \p batch submissions.
/// Returns false when the replayed server's counters differ from
/// \p expected.
bool replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                   const Recording& recording,
                   const framework::ServerStats& expected, std::size_t batch,
                   std::vector<Metric>& out);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

}  // namespace perfbench
