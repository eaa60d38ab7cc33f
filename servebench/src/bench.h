// Shared declarations of the serving benchmark: workload definitions,
// fixtures, the in-process serving stack, the traffic generators, the
// per-layer probes and the report. See servebench/README.md for what
// each workload is for and which metric each layer should move.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fq_bert.h"
#include "serve/net/transport_server.h"
#include "serve/router/model_router.h"
#include "serve/shard/shard_proxy.h"
#include "serve/trace.h"

namespace servebench {

using namespace fqbert;  // NOLINT: benchmark TU convenience

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One (model, tier) a request names. tier 0 = the model's default.
struct Target {
  std::string model;
  uint8_t tier = 0;
};

struct WorkloadSpec {
  std::string name;
  /// false: the client talks to one TransportServer; true: two
  /// backends behind a ShardProxy.
  bool proxy = false;
  nn::BertConfig config;
  int file_bits = 4;                // weight bits of the engine file
  std::vector<int> derived_tiers;   // tiers derived beside it
  serve::RouterConfig router;
  std::vector<int64_t> seq_choices;  // sequence lengths, equally often
  double open_rate_rps = 0.0;  // fixed absolute open-loop rate
  std::vector<Target> targets;  // requests cycle through these
  size_t pool_size = 0;         // distinct examples per run
};

/// Pipelined open-loop connections, and closed-loop clients (= nproc on
/// the reference host).
inline constexpr int kOpenConnections = 3;
inline constexpr int kClosedClients = 4;

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// `n` pool indices: seeded permutations of the pool laid end to end,
/// so every example is used equally often.
std::vector<uint32_t> example_cycle(size_t pool_size, size_t n, uint64_t seed);

/// weight_bits a target resolves to (tier 0 = the file's tier).
inline int resolved_bits(const WorkloadSpec& spec, const Target& t) {
  return t.tier == 0 ? spec.file_bits : t.tier;
}

// ---------------------------------------------------------------------------
// Fixtures and correctness references (fixtures.cpp)
// ---------------------------------------------------------------------------

/// Random init from a fixed seed, QatBert::calibrate, convert,
/// save_mapped. Regenerated on every invocation; the workload seed does
/// not enter. Returns "" on failure.
std::string write_engine_file(const WorkloadSpec& spec,
                              const std::string& dir);

/// The run's distinct examples, drawn from the workload seed.
std::vector<nn::Example> make_pool(const WorkloadSpec& spec, uint64_t seed);

/// Expected logits of every pool example on every tier the workload
/// serves, from the benchmark's own in-process engines (loaded from the
/// same file; derived tiers re-derived here).
class Checker {
 public:
  Checker(const WorkloadSpec& spec, const std::string& engine_path,
          std::vector<nn::Example> pool);
  const std::vector<nn::Example>& pool() const { return pool_; }
  const WorkloadSpec& spec() const { return spec_; }
  /// The file-tier engine (the per-layer probes time this one).
  const core::FqBertModel& engine() const { return *engines_.at(spec_.file_bits); }
  /// True when `resp` is kOk, served at the target's tier, and its
  /// logits are bit-identical to the reference. *why on mismatch.
  bool matches(const serve::ServeResponse& resp, size_t example,
               size_t target, std::string* why) const;

 private:
  const WorkloadSpec& spec_;
  std::vector<nn::Example> pool_;
  std::map<int, std::shared_ptr<const core::FqBertModel>> engines_;
  std::map<int, std::vector<std::vector<float>>> logits_;  // bits -> ex
};

// ---------------------------------------------------------------------------
// The serving stack under test (stack.cpp)
// ---------------------------------------------------------------------------

/// One backend: registry + router + transport, in this process.
struct Backend {
  Backend() = default;
  ~Backend();  // stops the transport, then drains the router
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  serve::EngineRegistry registry;
  std::unique_ptr<serve::ModelRouter> router;
  std::unique_ptr<serve::net::TransportServer> transport;
  std::string address;  // "127.0.0.1:port"
};

class Stack {
 public:
  /// Load the engine file(s) and start everything the workload needs.
  /// nullptr with *error on failure.
  static std::unique_ptr<Stack> start(const WorkloadSpec& spec,
                                      const std::string& engine_path,
                                      std::string* error);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const;  // where clients connect
  std::vector<std::unique_ptr<Backend>>& backends() { return backends_; }
  serve::shard::ShardProxy* proxy() { return proxy_.get(); }
  /// Sum of resident_weight_bytes() over every served lane.
  size_t served_weight_bytes() const;
  /// Every lane of every backend balances admitted == completed +
  /// timed_out + failed. Waits briefly for in-flight bookkeeping; false
  /// with *why when a lane still does not balance.
  bool lanes_balance(std::string* why) const;
  size_t total_workers() const;

 private:
  Stack() = default;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<serve::shard::ShardProxy> proxy_;
};

// ---------------------------------------------------------------------------
// Traffic (traffic.cpp)
// ---------------------------------------------------------------------------

/// Outcome counts of one phase, plus the first few problems seen.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t transport_failures = 0;
  uint64_t non_ok = 0;      // serving-level status other than kOk
  uint64_t mismatches = 0;  // kOk with wrong logits / tier / id
  std::vector<std::string> problems;
  void note(const std::string& problem) {
    if (problems.size() < 8) problems.push_back(problem);
  }
  void merge(const Tally& other);
  uint64_t failed() const { return transport_failures + non_ok; }
};

/// One traced request as the client saw it: its own call span (client
/// clock, ns) and the per-stage stamps the response carried.
struct RequestTrace {
  uint64_t trace_id = 0;
  int64_t start_ns = 0, end_ns = 0;
  int32_t batch_size = 0;
  std::vector<serve::TraceEvent> stages;
};

struct OpenLoopResult {
  Tally tally;
  std::vector<double> latency_us;   // from due time, kOk responses
  std::vector<double> lateness_us;  // send time minus due time
  std::vector<double> encode_ns, decode_ns;  // traced runs only
  std::vector<RequestTrace> traces;          // traced runs only
  double wall_s = 0.0;
};

/// Pipelined open loop: requests due on a seeded Poisson schedule at
/// spec.open_rate_rps, spread over kOpenConnections persistent
/// connections (a sender and a receiver thread each), matched back by
/// correlation id. `traced` stamps a trace id on every request.
OpenLoopResult run_open_loop(uint16_t port, const Checker& checker,
                             uint64_t seed, double duration_s, bool traced);

struct ClosedLoopResult {
  Tally tally;
  double wall_s = 0.0;
};

/// kClosedClients threads, each one TransportClient::call at a time, for
/// `duration_s`.
ClosedLoopResult run_closed_loop(uint16_t port, const Checker& checker,
                                 uint64_t seed, double duration_s);

/// Alternating untraced / traced blocks of TransportClient::call on one
/// connection: the tracing overhead as (traced - untraced) medians.
struct OverheadResult {
  Tally tally;
  std::vector<double> untraced_us, traced_us;
  std::vector<RequestTrace> traces;
};
OverheadResult run_overhead_probe(uint16_t port, const Checker& checker,
                                  uint64_t seed, double duration_s);

/// A control thread that runs ShardProxy::admin_move_model on the
/// "mover" model, A->B->A..., every 0.5 s while active.
class MoveLoop {
 public:
  MoveLoop(Stack& stack, const WorkloadSpec& spec, std::string engine_path);
  ~MoveLoop();
  MoveLoop(const MoveLoop&) = delete;
  MoveLoop& operator=(const MoveLoop&) = delete;
  /// Moves start only while active (the open-loop segments, where the
  /// latency they might stall is measured); one in flight completes.
  void set_active(bool active) { active_ = active; }
  /// Stop and join; returns the durations (ms) of completed moves.
  std::vector<double> stop(Tally* tally);

 private:
  void run();
  Stack& stack_;
  const WorkloadSpec& spec_;
  const std::string path_;
  std::vector<double> move_ms_;
  Tally tally_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> active_{false};
  std::thread thread_;  // last: starts after the members it uses
};

// ---------------------------------------------------------------------------
// Metrics and report (layers.cpp, report.cpp)
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Time FqBertModel / FqEncoderLayer / QuantLinear::forward_i8 and the
/// integer kernels in-process on `engine`, cycling `sample` for about
/// `budget_s`. Appends the core.* and quant.* metrics.
void probe_core(const core::FqBertModel& engine,
                const std::vector<nn::Example>& sample, double budget_s,
                Metrics& out);

/// serve.registry.load_ms / derive_ms: fresh-registry register_file and
/// register_derived of the workload's other tier, medians of `reps`.
bool probe_registry(const WorkloadSpec& spec, const std::string& engine_path,
                    int reps, Metrics& out, std::string* error);

/// serve.router / serve.net / serve.shard metrics from the traced open
/// loop's request traces.
void span_metrics(const WorkloadSpec& spec, const OpenLoopResult& open,
                  size_t workers, Metrics& out);

/// Spans kept in memory during the run and written as JSON lines.
bool write_spans(const std::string& path,
                 const std::vector<RequestTrace>& open,
                 const std::vector<RequestTrace>& calls);

struct BuildStamp {
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// Host and build identity as a JSON object body (nproc, ISA flags,
/// compiler, build type, sha, source digest).
std::string host_build_json(const BuildStamp& stamp);
bool release_build();

}  // namespace servebench
