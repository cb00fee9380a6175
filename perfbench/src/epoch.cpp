// One epoch: the workload's round trips through netsim → ServerEndpoint
// → (AsyncFrontEnd →) PowServer, driven by a benchmark-owned client that
// answers challenges from the pre-solved nonce table.
//
// The client reproduces WireClientPool's observable behaviour on a
// lossless link — per-client request ids from 1, the submission sent
// attempts × hash_cost after the challenge, kUnavailable retried with
// max(backoff, retry_after) under the same request id and deadline — but
// it never grinds nonces in kTable mode, so the timed region measures the
// server and the wire, not the simulated clients' solving. Per-attempt
// timeout timers are not armed: the link is lossless and the epoch gate
// checks that every message sent to the server was answered.

#include <chrono>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "bench.hpp"
#include "framework/transport.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "pow/solver.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kClientBase = 0x0A000000;  // 10.0.0.0
const std::string kServerHost = "198.51.100.250";

class BenchClient final {
 public:
  BenchClient(const WorkloadSpec& spec, const Inputs& inputs,
              netsim::EventLoop& loop, netsim::Network& network,
              const EpochOptions& options, EpochResult& result)
      : spec_(spec),
        inputs_(inputs),
        loop_(loop),
        network_(network),
        options_(options),
        result_(result),
        slots_(inputs.clients.size()) {
    ips_.reserve(inputs.clients.size());
    for (std::size_t i = 0; i < inputs.clients.size(); ++i) {
      ips_.push_back(
          features::IpAddress(kClientBase + static_cast<std::uint32_t>(i))
              .to_string());
    }
    network_.add_host_group(
        ips_.front(), inputs.clients.size(),
        [this](const std::string& member, const std::string&,
               common::BytesView payload) { on_message(member, payload); });
    if (options_.mode == Mode::kSolve) {
      options_.table->assign(inputs.clients.size(), {});
    }
  }

  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  void start() {
    for (std::uint32_t c = 0; c < slots_.size(); ++c) {
      if (inputs_.population) {
        schedule(inputs_.population->gap_before(c, 0, 0.0),
                 [this, c] { begin_round_trip(c); });
      } else {
        begin_round_trip(c);
      }
    }
  }

  /// Set whenever a client callback runs (traced sync epochs use it to
  /// tell server-bound loop steps from client ones).
  bool touched = false;

  /// (client, request id) of each message sent to the server, in send
  /// order. With a fixed-latency lossless link the server receives
  /// messages in exactly this order, so traced epochs can attribute each
  /// server-bound step to its round trip.
  std::deque<std::pair<std::uint32_t, std::uint64_t>> server_fifo;

 private:
  struct Slot {
    std::uint32_t ordinal = 0;     ///< round trips finished
    std::uint64_t pending_id = 0;  ///< 0 = nothing in flight
    std::uint16_t attempts = 0;
    common::TimePoint first_sent{};
    std::int64_t deadline_ms = 0;
    std::size_t cursor = 0;  ///< next nonce-table entry
    bool has_last = false;   ///< last honest submission, for replays
    pow::Puzzle last_puzzle;
    pow::Solution last_solution;
  };

  /// RAII span around a client callback.
  class Handle {
   public:
    Handle(BenchClient& client, std::uint32_t c, std::uint64_t rid)
        : tracer_(client.options_.tracer) {
      client.touched = true;
      if (tracer_ != nullptr) index_ = tracer_->begin("client.handle", c, rid);
    }
    ~Handle() {
      if (tracer_ != nullptr) tracer_->end(index_);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  template <typename Fn>
  void schedule(common::Duration delay, Fn fn) {
    common::TimePoint at = loop_.now() + delay;
    if (spec_.send_tick_ms > 0) {
      const common::Duration tick = std::chrono::milliseconds(spec_.send_tick_ms);
      const auto ticks = (at.time_since_epoch() + tick - common::Duration(1)) / tick;
      at = common::TimePoint(ticks * tick);
    }
    loop_.schedule_at(at, std::move(fn));
  }

  void begin_round_trip(std::uint32_t c) {
    Handle handle(*this, c, slots_[c].ordinal + 1);
    Slot& slot = slots_[c];
    slot.pending_id = slot.ordinal + 1;
    slot.attempts = 1;
    slot.first_sent = loop_.now();
    slot.deadline_ms = 0;
    if (spec_.retry.enabled &&
        spec_.retry.request_deadline > common::Duration::zero()) {
      slot.deadline_ms =
          common::to_millis(loop_.now() + spec_.retry.request_deadline);
    }
    send_request(c);
  }

  void send_request(std::uint32_t c) {
    const Slot& slot = slots_[c];
    framework::Request request;
    request.client_ip = ips_[c];
    request.features = inputs_.clients[c].features;
    request.request_id = slot.pending_id;
    request.deadline_ms = slot.deadline_ms;
    ++result_.requests_sent;
    send_to_server(c, slot.pending_id, request.serialize());
  }

  void send_to_server(std::uint32_t c, std::uint64_t request_id,
                      common::Bytes bytes) {
    if (options_.recording != nullptr) {
      options_.recording->to_server.push_back(
          {bytes, c, loop_.now() + spec_.link_latency});
    }
    Tracer* tracer = options_.tracer;
    if (tracer != nullptr) server_fifo.emplace_back(c, request_id);
    const std::int32_t span =
        tracer != nullptr ? tracer->begin("client.send", c, request_id) : -1;
    const bool sent = network_.send(ips_[c], kServerHost, std::move(bytes));
    if (tracer != nullptr) tracer->end(span);
    if (!sent) throw std::logic_error("lossless link dropped a message");
  }

  void on_message(const std::string& member, common::BytesView payload) {
    ++result_.answered;
    const auto ip = features::IpAddress::parse(member);
    const auto c = static_cast<std::uint32_t>(ip->value() - kClientBase);
    const auto message = framework::decode(payload);
    if (!message) throw std::logic_error("client received an undecodable message");
    if (options_.recording != nullptr) {
      options_.recording->to_client.emplace_back(payload.begin(), payload.end());
    }
    if (const auto* challenge = std::get_if<framework::Challenge>(&*message)) {
      Handle handle(*this, c, challenge->request_id);
      on_challenge(c, *challenge);
    } else if (const auto* response =
                   std::get_if<framework::Response>(&*message)) {
      Handle handle(*this, c, response->request_id);
      on_response(c, *response);
    }
  }

  /// Solves \p puzzle for real (the reference epoch, or a table miss).
  NonceEntry solve(const pow::Puzzle& puzzle, bool honest, bool attacker) {
    NonceEntry entry;
    entry.puzzle_id = puzzle.puzzle_id;
    entry.issued_at_ms = puzzle.issued_at_ms;
    entry.difficulty = puzzle.difficulty;
    const auto t0 = std::chrono::steady_clock::now();
    if (honest) {
      const pow::SolveResult solved = solver_.solve(puzzle);
      entry.nonce = solved.solution.nonce;
      entry.attempts = solved.attempts;
      result_.solve_attempts[attacker ? 1 : 0] += solved.attempts;
      ++result_.solves[attacker ? 1 : 0];
    }
    const pow::PuzzleContext context(puzzle);
    while (context.check(entry.bad_nonce)) ++entry.bad_nonce;
    result_.solve_s += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    return entry;
  }

  void on_challenge(std::uint32_t c, const framework::Challenge& challenge) {
    Slot& slot = slots_[c];
    if (challenge.request_id != slot.pending_id) return;
    const ClientInput& input = inputs_.clients[c];
    const pow::Puzzle& puzzle = challenge.puzzle;
    RtRecord& record = result_.records[inputs_.rt_offset[c] + slot.ordinal];
    record.puzzle_id = puzzle.puzzle_id;
    record.difficulty = static_cast<std::uint16_t>(puzzle.difficulty);
    result_.difficulty_sum[input.attacker ? 1 : 0] += puzzle.difficulty;
    ++result_.challenges[input.attacker ? 1 : 0];

    Kind kind = input.kinds[slot.ordinal];
    if (kind == Kind::kReplay && !slot.has_last) kind = Kind::kBadNonce;
    const bool honest = kind == Kind::kHonest;

    std::vector<NonceEntry>& list = (*options_.table)[c];
    NonceEntry entry;
    if (options_.mode == Mode::kSolve) {
      entry = solve(puzzle, honest, input.attacker);
      list.push_back(entry);
    } else if (slot.cursor < list.size() &&
               list[slot.cursor].puzzle_id == puzzle.puzzle_id &&
               list[slot.cursor].issued_at_ms == puzzle.issued_at_ms &&
               list[slot.cursor].difficulty == puzzle.difficulty) {
      entry = list[slot.cursor];
    } else {
      ++result_.solve_miss;
      entry = solve(puzzle, honest, input.attacker);
    }
    ++slot.cursor;

    framework::Submission submission;
    submission.request_id = challenge.request_id;
    submission.puzzle = puzzle;
    submission.solution = {puzzle.puzzle_id, entry.bad_nonce};
    submission.deadline_ms = slot.deadline_ms;
    common::Duration delay{0};
    switch (kind) {
      case Kind::kHonest:
        submission.solution.nonce = entry.nonce;
        delay = std::chrono::duration_cast<common::Duration>(
            std::chrono::duration<double, std::micro>(
                static_cast<double>(entry.attempts) * spec_.hash_cost_us));
        if (input.attacker) {
          slot.has_last = true;
          slot.last_puzzle = submission.puzzle;
          slot.last_solution = submission.solution;
        }
        break;
      case Kind::kBadNonce:
        break;
      case Kind::kForged:
        submission.puzzle.auth[0] ^= 0x01;
        break;
      case Kind::kReplay:
        submission.puzzle = slot.last_puzzle;
        submission.solution = slot.last_solution;
        break;
    }
    schedule(delay, [this, c, submission = std::move(submission)] {
      Handle handle(*this, c, submission.request_id);
      ++result_.submissions_sent;
      send_to_server(c, submission.request_id, submission.serialize());
    });
  }

  void on_response(std::uint32_t c, const framework::Response& response) {
    Slot& slot = slots_[c];
    if (response.request_id != slot.pending_id) return;
    if (spec_.retry.enabled &&
        response.status == common::ErrorCode::kUnavailable &&
        slot.attempts < spec_.retry.max_attempts) {
      const auto backoff = framework::retry_backoff(
          spec_.retry, framework::retry_client_key(ips_[c]),
          response.request_id, slot.attempts);
      const auto hinted = std::chrono::duration_cast<common::Duration>(
          std::chrono::milliseconds(response.retry_after_ms));
      ++slot.attempts;
      const std::uint64_t id = slot.pending_id;
      schedule(std::max(backoff, hinted), [this, c, id] {
        Handle handle(*this, c, id);
        send_request(c);
      });
      return;
    }
    RtRecord& record = result_.records[inputs_.rt_offset[c] + slot.ordinal];
    record.code = static_cast<std::uint16_t>(response.status);
    record.latency_ns = (loop_.now() - slot.first_sent).count();
    record.attempts = slot.attempts;
    slot.pending_id = 0;
    ++slot.ordinal;
    if (slot.ordinal >= inputs_.clients[c].kinds.size()) return;
    if (inputs_.population) {
      const double now_ms = common::to_millis_f(loop_.now().time_since_epoch());
      schedule(inputs_.population->gap_before(c, slot.ordinal, now_ms),
               [this, c] { begin_round_trip(c); });
    } else {
      begin_round_trip(c);
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  netsim::EventLoop& loop_;
  netsim::Network& network_;
  const EpochOptions& options_;
  EpochResult& result_;
  std::vector<Slot> slots_;
  std::vector<std::string> ips_;
  pow::Solver solver_;
};

}  // namespace

const policy::LinearPolicy& bench_policy() {
  static const policy::LinearPolicy policy = policy::LinearPolicy::policy2();
  return policy;
}

EpochResult run_epoch(const WorkloadSpec& spec, const Inputs& inputs,
                      const EpochOptions& options) {
  EpochResult result;
  result.records.assign(inputs.round_trips, RtRecord{});

  netsim::EventLoop loop;
  common::Rng net_rng(17);
  netsim::Network network(loop, net_rng);
  network.set_default_link({.base_latency = spec.link_latency,
                            .jitter = common::Duration::zero(),
                            .bandwidth_bytes_per_sec = 0.0,
                            .loss_rate = 0.0});
  framework::PowServer server(loop.clock(), *inputs.model, bench_policy(),
                              spec.server);
  std::unique_ptr<framework::AsyncFrontEnd> front_end;
  std::unique_ptr<framework::ServerEndpoint> endpoint;
  if (spec.async) {
    front_end = std::make_unique<framework::AsyncFrontEnd>(
        loop, network, kServerHost, server, spec.front_end);
    endpoint = std::make_unique<framework::ServerEndpoint>(
        network, kServerHost, server, *front_end);
    // Create the server's lazy verify pool before the clock starts.
    (void)server.on_request_batch({});

  } else {
    endpoint =
        std::make_unique<framework::ServerEndpoint>(network, kServerHost, server);
  }
  BenchClient client(spec, inputs, loop, network, options, result);

  Tracer* tracer = options.tracer;
  if (tracer != nullptr) tracer->clear();
  const double cpu0 = process_cpu_s();
  const double thread0 = thread_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  client.start();
  if (spec.async) {
    const std::int32_t pump =
        tracer != nullptr ? tracer->begin("frontend.pump", 0, 0) : -1;
    result.events = front_end->run_until_idle();
    if (tracer != nullptr) tracer->end(pump);
  } else if (tracer == nullptr) {
    result.events = loop.run();
  } else {
    for (;;) {
      client.touched = false;
      const std::uint64_t sent_before = network.messages_sent();
      const std::int32_t step = tracer->begin("loop.step", 0, 0);
      const bool ran = loop.step();
      tracer->end(step);
      if (!ran) {
        tracer->spans().pop_back();
        break;
      }
      ++result.events;
      Span& span = tracer->spans()[static_cast<std::size_t>(step)];
      if (!client.touched && network.messages_sent() - sent_before == 1) {
        span.name = "endpoint.step";
        std::tie(span.client, span.request_id) = client.server_fifo.front();
        client.server_fifo.pop_front();
        result.server_step_us.push_back(
            static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      } else {
        span.name = "client.step";
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.pump_cpu_s = thread_cpu_s() - thread0;
  result.cpu_s = process_cpu_s() - cpu0;
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();

  if (tracer != nullptr) {
    // Bench-client cost: its callbacks' self time, and Network::send.
    // Self time = a span's duration minus its direct children's.
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> self_us(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
      self_us[i] += us;
      if (spans[i].parent >= 0) {
        self_us[static_cast<std::size_t>(spans[i].parent)] -= us;
      }
      if (std::string_view(spans[i].name) == "client.send") {
        result.send_us_sum += us;
        ++result.sends;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) == "client.handle") {
        result.client_self_us_sum += self_us[i];
      }
    }
  }

  result.server_messages = result.requests_sent + result.submissions_sent;
  result.stats = server.stats();
  if (front_end) {
    result.front_end = front_end->stats();
    result.overflows = front_end->overflows();
  }
  result.degrade = server.degrade_stats();
  result.server_memory_bytes = server.memory_bytes();
  return result;
}

}  // namespace perfbench
