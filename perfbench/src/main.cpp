// powai benchmark program.
//
//   powai_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--smoke] [--setup-reps 3] [--plant-corrupt K]
//                   [--spans PATH] [--commit ID]
//
// Set-up (timed as setup_s, repeated --setup-reps times, median
// reported): fit the reputation model, generate the seeded population,
// and run the reference epoch with real solving, which fills the nonce
// table. The measured window then replays the same epoch on fresh
// stacks from the table until --seconds have passed; every epoch must
// reproduce the reference outcomes and ServerStats exactly. With
// --trace 0 the end-to-end metrics are printed, with --trace 1 the
// per-layer ones (untraced and traced epochs alternate, so
// trace.overhead compares like with like). The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is 0
// only when every check passed.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "crypto/sha256.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------------------
// Helpers shared with the other files
// ---------------------------------------------------------------------------

Tracer::Tracer() : base_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::uint32_t client,
                           std::uint64_t request_id) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, current_, client, request_id});
  current_ = index;
  return index;
}

void Tracer::end(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  int setup_reps = 3;
  std::size_t plant_corrupt = 0;
  std::string spans_path;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--setup-reps") {
      args.setup_reps = std::max(1, std::stoi(value));
    } else if (key == "--plant-corrupt") {
      args.plant_corrupt = std::stoull(value);
    } else if (key == "--spans") {
      args.spans_path = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.trace != 0 && args.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Round trips of \p epoch that went unanswered or differ from \p ref.
std::uint64_t failed_round_trips(const EpochResult& epoch,
                                 const EpochResult& ref) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < epoch.records.size(); ++i) {
    if (epoch.records[i].code == 0xffff || !(epoch.records[i] == ref.records[i])) {
      ++failed;
    }
  }
  return failed;
}

/// Epoch-level invariants beyond the per-round-trip comparison.
std::vector<std::string> epoch_violations(const EpochResult& epoch,
                                          const EpochResult* ref) {
  std::vector<std::string> out;
  if (epoch.answered != epoch.server_messages) {
    out.push_back("sent " + std::to_string(epoch.server_messages) +
                  " messages to the server but " +
                  std::to_string(epoch.answered) + " were answered");
  }
  if (epoch.solve_miss != 0) {
    out.push_back(std::to_string(epoch.solve_miss) + " nonce-table misses");
  }
  if (ref != nullptr && !(epoch.stats == ref->stats)) {
    out.push_back("ServerStats delta differs from the reference");
  }
  return out;
}

std::uint64_t fingerprint(const std::vector<RtRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const RtRecord& r : records) {
    fold(r.puzzle_id);
    fold(static_cast<std::uint64_t>(r.latency_ns));
    fold(r.code);
    fold(r.attempts);
    fold(r.difficulty);
  }
  return h;
}

void stats_metrics(const framework::ServerStats& s, std::vector<Metric>& out) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"requests", s.requests},
      {"challenges_issued", s.challenges_issued},
      {"served", s.served},
      {"served_without_pow", s.served_without_pow},
      {"rejected_rate_limited", s.rejected_rate_limited},
      {"rejected_malformed", s.rejected_malformed},
      {"rejected_bad_solution", s.rejected_bad_solution},
      {"rejected_expired", s.rejected_expired},
      {"rejected_replay", s.rejected_replay},
      {"rejected_binding", s.rejected_binding},
      {"rejected_overload", s.rejected_overload},
      {"shed_deadline_requests", s.shed_deadline_requests},
      {"shed_deadline_submissions", s.shed_deadline_submissions},
      {"shed_queue_requests", s.shed_queue_requests},
      {"shed_queue_submissions", s.shed_queue_submissions},
      {"shed_degraded_requests", s.shed_degraded_requests},
      {"shed_degraded_submissions", s.shed_degraded_submissions},
      {"difficulty_sum", s.difficulty_sum},
  };
  for (const auto& [name, value] : fields) {
    out.push_back({std::string("server.stats.") + name,
                   static_cast<double>(value), "count"});
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"client\":" << s.client << ",\"request_id\":" << s.request_id
        << "}\n";
  }
}

int run(const Args& args) {
  const WorkloadSpec spec = make_spec(args.workload, args.smoke);
  using SteadyClock = std::chrono::steady_clock;

  std::printf("env {\"nproc\":%ld,\"sha256_backend\":\"%s\",\"compiler\":\"%s\","
              "\"build_type\":\"%s\",\"commit\":\"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::string(crypto::Sha256::backend_name(crypto::Sha256::backend()))
                  .c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());

  // ---- set-up: model, population, reference epoch with real solving ----
  std::vector<double> setup_s;
  Inputs inputs;
  NonceTable table;
  EpochResult ref;
  Recording recording;
  std::vector<std::string> problems;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    const auto t0 = SteadyClock::now();
    Inputs rep_inputs = make_inputs(spec, args.seed);
    NonceTable rep_table;
    Recording rep_recording;
    EpochOptions options;
    options.mode = Mode::kSolve;
    options.table = &rep_table;
    options.recording = &rep_recording;
    EpochResult rep_ref = run_epoch(spec, rep_inputs, options);
    setup_s.push_back(
        std::chrono::duration<double>(SteadyClock::now() - t0).count());
    if (rep > 0 && !(rep_ref.records == ref.records && rep_ref.stats == ref.stats)) {
      problems.push_back("reference epochs of one seed differ");
    }
    inputs = std::move(rep_inputs);
    table = std::move(rep_table);
    ref = std::move(rep_ref);
    recording = std::move(rep_recording);
  }
  for (const std::string& p : epoch_violations(ref, nullptr)) {
    problems.push_back("reference: " + p);
  }
  for (const RtRecord& r : ref.records) {
    if (r.code == 0xffff) {
      problems.push_back("reference: a round trip went unanswered");
      break;
    }
  }

  // Test hook: corrupt the first K honest benign table entries. The
  // server must reject those submissions, so the gate must trip.
  std::size_t planted = 0;
  for (std::size_t c = 0; c < table.size() && planted < args.plant_corrupt; ++c) {
    if (inputs.clients[c].attacker || table[c].empty()) continue;
    table[c].front().nonce = table[c].front().bad_nonce;
    ++planted;
  }

  // ---- measured window --------------------------------------------------
  const std::size_t rts = inputs.round_trips;
  const auto deadline =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(args.seconds));
  std::vector<double> rate_untraced, rate_traced, cpu_per_rt, pump_cpu_per_rt,
      offloop_cpu_per_rt, memory, step_us, fe_batches, fe_mean_batch,
      fe_largest, fe_sojourn_ms;
  double send_us = 0.0, client_self_us = 0.0;
  std::uint64_t sends = 0, traced_rts = 0;
  std::uint64_t attempted = 0, failed = 0, misses = 0;
  Tracer tracer;
  bool spans_written = false;
  for (bool traced = false;; traced = args.trace == 1 && !traced) {
    EpochOptions options;
    options.mode = Mode::kTable;
    options.table = &table;
    options.tracer = traced ? &tracer : nullptr;
    EpochResult epoch = run_epoch(spec, inputs, options);
    attempted += rts;
    failed += failed_round_trips(epoch, ref);
    misses += epoch.solve_miss;
    for (const std::string& p : epoch_violations(epoch, &ref)) {
      if (std::find(problems.begin(), problems.end(), p) == problems.end()) {
        problems.push_back(p);
      }
    }
    const double per_rt = 1e6 / static_cast<double>(rts);
    if (traced) {
      rate_traced.push_back(static_cast<double>(rts) / epoch.wall_s);
      step_us.insert(step_us.end(), epoch.server_step_us.begin(),
                     epoch.server_step_us.end());
      send_us += epoch.send_us_sum;
      sends += epoch.sends;
      client_self_us += epoch.client_self_us_sum;
      traced_rts += rts;
      if (!spans_written && !args.spans_path.empty()) {
        write_spans(args.spans_path, tracer.spans());
        spans_written = true;
      }
    } else {
      rate_untraced.push_back(static_cast<double>(rts) / epoch.wall_s);
      cpu_per_rt.push_back(epoch.cpu_s * per_rt);
      pump_cpu_per_rt.push_back(epoch.pump_cpu_s * per_rt);
      offloop_cpu_per_rt.push_back((epoch.cpu_s - epoch.pump_cpu_s) * per_rt);
      memory.push_back(static_cast<double>(epoch.server_memory_bytes));
      const framework::FrontEndStats& fe = epoch.front_end;
      const double batches = static_cast<double>(std::max<std::uint64_t>(1, fe.batches));
      fe_batches.push_back(static_cast<double>(fe.batches));
      fe_mean_batch.push_back(static_cast<double>(fe.messages) / batches);
      fe_largest.push_back(static_cast<double>(fe.largest_batch));
      fe_sojourn_ms.push_back(fe.sojourn.mean_ms());
    }
    const bool both_seen = args.trace == 0 || !rate_traced.empty();
    if (SteadyClock::now() >= deadline && both_seen && traced == (args.trace == 1)) {
      break;
    }
  }

  // ---- per-layer replay (also the workload-mix check) -------------------
  std::vector<Metric> layers;
  // Batch verification is replayed at the measured mean batch size (1 on
  // the synchronous path, which never batches).
  const auto batch = static_cast<std::size_t>(
      std::max(1.0, spec.async ? std::round(median(fe_mean_batch)) : 1.0));
  if (!replay_layers(spec, inputs, recording, ref.stats, batch, layers)) {
    problems.push_back("replayed server counters differ from the epoch's");
  }

  // ---- derived figures ---------------------------------------------------
  std::vector<double> benign_lat, benign_served_lat, attacker_served_lat;
  std::uint64_t benign_served = 0;
  for (std::size_t c = 0; c < inputs.clients.size(); ++c) {
    const bool attacker = inputs.clients[c].attacker;
    for (std::size_t k = 0; k < inputs.clients[c].kinds.size(); ++k) {
      const RtRecord& r = ref.records[inputs.rt_offset[c] + k];
      const double ms = static_cast<double>(r.latency_ns) / 1e6;
      const bool ok = r.code == static_cast<std::uint16_t>(common::ErrorCode::kOk);
      if (!attacker) {
        benign_lat.push_back(ms);
        if (ok) {
          ++benign_served;
          benign_served_lat.push_back(ms);
        }
      } else if (ok) {
        attacker_served_lat.push_back(ms);
      }
    }
  }
  const double benign_p50 = quantile(benign_served_lat, 0.5);
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const std::size_t clients = inputs.clients.size();
  const framework::ServerStats& st = ref.stats;
  const double shed = static_cast<double>(
      st.shed_deadline_requests + st.shed_deadline_submissions +
      st.shed_queue_requests + st.shed_queue_submissions +
      st.shed_degraded_requests + st.shed_degraded_submissions);
  const auto class_mean = [&ref](int k) {
    return ref.challenges[k] > 0 ? static_cast<double>(ref.difficulty_sum[k]) /
                                       static_cast<double>(ref.challenges[k])
                                 : 0.0;
  };
  const auto find_layer = [&layers](const std::string& name) {
    for (const Metric& m : layers) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };

  std::printf("workload %s seed %llu: %zu clients (%zu attackers), %zu round "
              "trips per epoch, %zu measured epochs, fingerprint %016llx\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              clients, spec.attacker_clients, rts,
              rate_untraced.size() + rate_traced.size(),
              static_cast<unsigned long long>(fingerprint(ref.records)));
  std::printf("mix policy.mean_difficulty.benign = %.4f over %llu challenges\n",
              class_mean(0), static_cast<unsigned long long>(ref.challenges[0]));
  std::printf("mix policy.mean_difficulty.attacker = %.4f over %llu challenges\n",
              class_mean(1), static_cast<unsigned long long>(ref.challenges[1]));
  std::printf("mix reputation.cache_hit_ratio = %.4f over %.0f lookups\n",
              find_layer("reputation.cache_hit_ratio"),
              find_layer("reputation.cache_lookups"));
  std::printf("mix benign latency over %zu served of %zu benign round trips; "
              "attacker p50 over %zu served\n",
              benign_served_lat.size(), benign_lat.size(),
              attacker_served_lat.size());
  std::printf("check failed_share = %.6f (%llu of %llu round trips), "
              "client.solve_miss = %llu\n",
              failed_share, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(misses));
  // Every epoch is the same work, so the spread of per-epoch figures is
  // the host's: rt_per_s and cpu_us_per_rt report the best epoch (see
  // README.md, "Wall-clock figures"); the quartiles are printed here.
  std::printf("timing rt_per_s over %zu untraced epochs: min %.0f q1 %.0f "
              "median %.0f q3 %.0f max %.0f\n",
              rate_untraced.size(), quantile(rate_untraced, 0.0),
              quantile(rate_untraced, 0.25), quantile(rate_untraced, 0.5),
              quantile(rate_untraced, 0.75), quantile(rate_untraced, 1.0));
  std::printf("timing cpu_us_per_rt over %zu untraced epochs: min %.3f q1 %.3f "
              "median %.3f q3 %.3f max %.3f\n",
              cpu_per_rt.size(), quantile(cpu_per_rt, 0.0),
              quantile(cpu_per_rt, 0.25), quantile(cpu_per_rt, 0.5),
              quantile(cpu_per_rt, 0.75), quantile(cpu_per_rt, 1.0));
  std::printf("timing setup_s over %zu set-ups: %s\n", setup_s.size(), [&] {
    std::string list;
    for (const double s : setup_s) list += std::to_string(s) + " ";
    return list;
  }().c_str());
  for (const std::string& p : problems) std::printf("FAIL %s\n", p.c_str());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"rt_per_s", quantile(rate_untraced, 1.0), "1/s"},
        {"cpu_us_per_rt", quantile(cpu_per_rt, 0.0), "us"},
        {"benign_lat_p50_ms", benign_p50, "sim_ms"},
        {"benign_lat_p99_ms", quantile(benign_served_lat, 0.99), "sim_ms"},
        {"throttle_ratio",
         benign_p50 > 0.0 ? quantile(attacker_served_lat, 0.5) / benign_p50 : 0.0,
         "ratio"},
        {"benign_served_share",
         benign_lat.empty() ? 0.0
                            : static_cast<double>(benign_served) /
                                  static_cast<double>(benign_lat.size()),
         "ratio"},
        {"correct_share", 1.0 - failed_share, "ratio"},
        {"server_bytes_per_client", median(memory) / static_cast<double>(clients),
         "B"},
    };
  } else {
    const double per_rt = 1.0 / static_cast<double>(rts);
    const bool async = spec.async;
    const std::uint64_t solves = ref.solves[0] + ref.solves[1];
    metrics = {
        {"netsim.events_per_rt", static_cast<double>(ref.events) * per_rt, "count"},
        {"netsim.send_us", sends > 0 ? send_us / static_cast<double>(sends) : 0.0,
         "us"},
        {"endpoint.msg_us_p50", quantile(step_us, 0.5), "us"},
        {"endpoint.msg_us_p99", quantile(step_us, 0.99), "us"},
        {"bench_client.self_us_per_rt",
         traced_rts > 0 ? client_self_us / static_cast<double>(traced_rts) : 0.0,
         "us"},
        {"policy.mean_difficulty.benign", class_mean(0), "bits"},
        {"policy.mean_difficulty.attacker", class_mean(1), "bits"},
        {"pow.useful_ratio",
         ref.submissions_sent > 0 ? static_cast<double>(st.served) /
                                        static_cast<double>(ref.submissions_sent)
                                  : 0.0,
         "ratio"},
        {"client.solve_hashes_per_s",
         ref.solve_s > 0.0 ? static_cast<double>(ref.solve_attempts[0] +
                                                 ref.solve_attempts[1]) /
                                 ref.solve_s
                           : 0.0,
         "1/s"},
        {"client.attempts_per_solve.benign",
         ref.solves[0] > 0 ? static_cast<double>(ref.solve_attempts[0]) /
                                 static_cast<double>(ref.solves[0])
                           : 0.0,
         "count"},
        {"client.attempts_per_solve.attacker",
         ref.solves[1] > 0 ? static_cast<double>(ref.solve_attempts[1]) /
                                 static_cast<double>(ref.solves[1])
                           : 0.0,
         "count"},
        {"client.solves", static_cast<double>(solves), "count"},
        {"client.solve_miss", static_cast<double>(misses), "count"},
        {"failed_share", failed_share, "ratio"},
        {"frontend.batches_per_rt", median(fe_batches) * per_rt, "count"},
        {"frontend.mean_batch", async ? median(fe_mean_batch) : 0.0, "count"},
        {"frontend.largest_batch", median(fe_largest), "count"},
        {"frontend.sojourn_mean_ms", median(fe_sojourn_ms), "ms"},
        {"frontend.overflows", static_cast<double>(ref.overflows), "count"},
        {"frontend.pump_cpu_us_per_rt", async ? median(pump_cpu_per_rt) : 0.0,
         "us"},
        {"frontend.offloop_cpu_us_per_rt",
         async ? median(offloop_cpu_per_rt) : 0.0, "us"},
        {"degrade.max_level", static_cast<double>(ref.degrade.max_level),
         "level"},
        {"degrade.shed_share",
         ref.server_messages > 0
             ? shed / static_cast<double>(ref.server_messages)
             : 0.0,
         "ratio"},
        {"trace.overhead", median(rate_traced) / median(rate_untraced), "ratio"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    stats_metrics(st, metrics);
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-40s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = problems.empty() && failed == 0 && misses == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "powai_perfbench: %s\n", e.what());
    return 2;
  }
}
