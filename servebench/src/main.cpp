// servebench: the FQ-BERT serving benchmark. Stands up the serving
// stack in this process, drives it from outside through the public
// client, checks every response against an in-process forward of the
// same example, and prints each metric by name with its unit. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
//
//   servebench --workload mini-default --seed 1 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics (and tracing overhead).
// servebench/run.py builds this binary and passes these flags through.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "bench.h"
#include "serve/net/transport_client.h"
#include "stats.h"

namespace {

using namespace servebench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required
  int trace = 0;
  std::string work_dir = ".bench_build/servebench/run";
  BuildStamp stamp;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") a.trace = std::atoi(v);
    else if (key == "--work-dir") a.work_dir = v;
    else if (key == "--git-sha") a.stamp.git_sha = v;
    else if (key == "--src-digest") a.stamp.src_digest = v;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1))
    return std::nullopt;
  return a;
}

/// The first request after start-up, retried until the stack answers
/// kOk (the end of the set-up interval). It sends the pool's shortest
/// example: every seed's pool holds that length, so the forward inside
/// the set-up costs the same whatever the seed.
bool first_ok(uint16_t port, const Checker& checker, Tally& tally) {
  serve::net::TransportClient client;
  client.set_timeouts(serve::Micros(2'000'000), serve::Micros(10'000'000));
  const Target& t = checker.spec().targets[0];
  const auto& pool = checker.pool();
  size_t example = 0;
  for (size_t i = 1; i < pool.size(); ++i)
    if (pool[i].tokens.size() < pool[example].tokens.size()) example = i;
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (!client.connected() && !client.connect("127.0.0.1", port)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ++tally.attempted;
    const auto resp = client.call(pool[example], std::nullopt, t.model, 0,
                                  t.tier);
    std::string why;
    if (resp && checker.matches(*resp, example, 0, &why)) {
      ++tally.ok;
      return true;
    }
    if (!resp) {
      ++tally.transport_failures;
    } else if (resp->status != serve::RequestStatus::kOk) {
      ++tally.non_ok;
    } else {
      ++tally.mismatches;
      tally.note("first response: " + why);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  tally.note("the stack never answered kOk");
  return false;
}

struct NetCounters {
  uint64_t frames_in = 0, frames_out = 0, protocol_errors = 0;
};

NetCounters net_counters(Stack& stack) {
  NetCounters c;
  for (const auto& b : stack.backends()) {
    const auto t = b->transport->counters();
    c.frames_in += t.frames_in;
    c.frames_out += t.frames_out;
    c.protocol_errors += t.protocol_errors;
  }
  if (stack.proxy() != nullptr)
    c.protocol_errors += stack.proxy()->counters().protocol_errors;
  return c;
}

std::string metrics_json(const Metrics& metrics) {
  std::string s = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    s += buf + metrics[i].unit + "\"}";
  }
  return s + "}";
}

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

int run(const Args& args) {
  const WorkloadSpec* spec_ptr = find_workload(args.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : workloads())
      std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const double S = args.seconds;
  const bool traced = args.trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::string host = host_build_json(args.stamp);
  std::printf("servebench: workload %s, seed %" PRIu64 ", %g s, trace %d\n",
              spec.name.c_str(), args.seed, S, args.trace);
  std::printf("host: %s\n", host.c_str());
  if (!release_build())
    std::printf("WARNING: not a Release build; timings are not comparable\n");

  // Fixtures (not timed): the engine file and the reference logits.
  const std::string engine_path = write_engine_file(spec, args.work_dir);
  if (engine_path.empty()) {
    std::fprintf(stderr, "servebench: could not write the engine file\n");
    return 1;
  }
  const Checker checker(spec, engine_path, make_pool(spec, args.seed));

  Tally total;
  std::vector<std::string> errors;

  // Set-up: engine load (+ derive) through the first kOk response. The
  // stack that stays up for the measured phases is timed first; the
  // measured run times more set-ups of side stacks between its rounds,
  // so the reported median samples the whole run.
  std::vector<double> setup_s;
  auto timed_setup = [&](std::unique_ptr<Stack>* keep) {
    std::string error;
    const int64_t t0 = now_ns();
    std::unique_ptr<Stack> fresh = Stack::start(spec, engine_path, &error);
    if (!fresh || !first_ok(fresh->port(), checker, total)) {
      errors.push_back("set-up failed: " +
                       (error.empty() ? std::string("no kOk response") : error));
      return false;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (keep != nullptr) *keep = std::move(fresh);
    return true;
  };
  std::unique_ptr<Stack> stack;
  if (!timed_setup(&stack)) {
    for (const std::string& p : total.problems)
      std::fprintf(stderr, "  %s\n", p.c_str());
    std::fprintf(stderr, "servebench: %s\n", errors.back().c_str());
    return 1;
  }
  const uint16_t port = stack->port();

  // Warm-up: caches and lazy set-up settle before anything is timed.
  total.merge(run_closed_loop(port, checker, args.seed + 17, 0.05 * S).tally);

  Metrics metrics;
  Metrics unbounded;  // end-to-end figures printed but not in the JSON
  Metrics diagnostics;
  if (!traced) {
    // After the warm-up, the rest of the run is kCycles rounds of [open
    // loop, closed loop, side set-ups], so every metric samples the whole
    // run rather than one stretch of it: host noise that comes and goes
    // over seconds then averages out instead of landing on one metric.
    constexpr int kCycles = 6;
    const double cycle_s = 0.95 * S / kCycles;
    std::optional<MoveLoop> moves;
    if (spec.proxy) moves.emplace(*stack, spec, engine_path);
    std::vector<double> p50s, p90s, rps, latency, lateness;
    uint64_t closed_ok = 0;
    double closed_wall = 0.0;
    size_t min_cycle_samples = SIZE_MAX;
    for (int c = 0; c < kCycles; ++c) {
      const uint64_t cycle_seed = args.seed * 1000 + static_cast<uint64_t>(c);
      if (moves) moves->set_active(true);
      const OpenLoopResult open =
          run_open_loop(port, checker, cycle_seed, 0.6 * cycle_s, false);
      if (moves) moves->set_active(false);
      const ClosedLoopResult closed =
          run_closed_loop(port, checker, cycle_seed, 0.35 * cycle_s);
      for (int k = 0; k < 3; ++k) timed_setup(nullptr);
      total.merge(open.tally);
      total.merge(closed.tally);
      p50s.push_back(percentile(open.latency_us, 0.5).value);
      p90s.push_back(percentile(open.latency_us, 0.9).value);
      min_cycle_samples = std::min(min_cycle_samples, open.latency_us.size());
      closed_ok += closed.tally.ok;
      closed_wall += closed.wall_s;
      rps.push_back(closed.wall_s > 0.0
                        ? static_cast<double>(closed.tally.ok) / closed.wall_s
                        : 0.0);
      latency.insert(latency.end(), open.latency_us.begin(),
                     open.latency_us.end());
      lateness.insert(lateness.end(), open.lateness_us.begin(),
                      open.lateness_us.end());
    }
    const std::vector<double> move_ms =
        moves ? moves->stop(&total) : std::vector<double>{};
    std::string why;
    if (!stack->lanes_balance(&why)) errors.push_back("accounting: " + why);

    const Percentile p50 = percentile(latency, 0.5);
    const Percentile p90 = percentile(latency, 0.9);
    const Percentile p99 = percentile(latency, 0.99);
    const double failed_ratio =
        total.attempted > 0 ? static_cast<double>(total.failed()) /
                                  static_cast<double>(total.attempted)
                            : 1.0;
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"lat_p50_ms", p50.value / 1e3, "ms"});
    metrics.push_back({"lat_p90_ms", p90.value / 1e3, "ms"});
    metrics.push_back({"throughput_rps",
                       closed_wall > 0.0 ? closed_ok / closed_wall : 0.0,
                       "req/s"});
    metrics.push_back({"ok_ratio", 1.0 - failed_ratio, "ratio"});
    metrics.push_back({"weight_kb",
                       static_cast<double>(stack->served_weight_bytes()) / 1024.0,
                       "KiB"});
    // admin_ms is the proxy workload's own end-to-end figure: printed
    // with the others, but a direct workload has no migration to time.
    if (spec.proxy) unbounded.push_back({"admin_ms", median(move_ms), "ms"});

    unbounded.push_back({"failed_ratio", failed_ratio, "ratio"});
    diagnostics.push_back({"cycles", kCycles, "count"});
    diagnostics.push_back({"setup_samples", static_cast<double>(setup_s.size()),
                           "count"});
    diagnostics.push_back({"setup_s_p25", percentile(setup_s, 0.25).value, "s"});
    diagnostics.push_back({"setup_s_p75", percentile(setup_s, 0.75).value, "s"});
    diagnostics.push_back({"open_loop_samples", static_cast<double>(p50.n),
                           "count"});
    diagnostics.push_back({"open_loop_samples_min_per_cycle",
                           static_cast<double>(min_cycle_samples), "count"});
    diagnostics.push_back({"lat_p90_samples_beyond",
                           static_cast<double>(p90.beyond), "count"});
    diagnostics.push_back({"lat_p99_ms", p99.value / 1e3, "ms"});
    diagnostics.push_back({"lat_p99_samples_beyond",
                           static_cast<double>(p99.beyond), "count"});
    diagnostics.push_back({"open_loop_offered_rps", spec.open_rate_rps, "req/s"});
    diagnostics.push_back({"generator_late_p50_us",
                           percentile(lateness, 0.5).value, "us"});
    diagnostics.push_back({"generator_late_p99_us",
                           percentile(lateness, 0.99).value, "us"});
    diagnostics.push_back({"generator_late_max_us",
                           percentile(lateness, 1.0).value, "us"});
    if (spec.proxy)
      diagnostics.push_back({"moves", static_cast<double>(move_ms.size()),
                             "count"});
    for (size_t c = 0; c < rps.size(); ++c) {
      const std::string p = "cycle" + std::to_string(c) + ".";
      diagnostics.push_back({p + "lat_p50_ms", p50s[c] / 1e3, "ms"});
      diagnostics.push_back({p + "lat_p90_ms", p90s[c] / 1e3, "ms"});
      diagnostics.push_back({p + "throughput_rps", rps[c], "req/s"});
    }
  } else {
    // In-process phases first, on the quiet stack.
    std::vector<nn::Example> sample(
        checker.pool().begin(),
        checker.pool().begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(8, checker.pool().size())));
    probe_core(checker.engine(), sample, 0.25 * S, metrics);
    std::string error;
    if (!probe_registry(spec, engine_path, 5, metrics, &error))
      errors.push_back(error);

    std::optional<MoveLoop> moves;
    if (spec.proxy) {
      moves.emplace(*stack, spec, engine_path);
      moves->set_active(true);
    }
    const NetCounters before = net_counters(*stack);
    const OpenLoopResult open =
        run_open_loop(port, checker, args.seed, 0.45 * S, true);
    const NetCounters after = net_counters(*stack);
    std::vector<double> move_ms;
    if (moves) move_ms = moves->stop(&total);
    const OverheadResult overhead =
        run_overhead_probe(port, checker, args.seed + 2, 0.2 * S);
    total.merge(open.tally);
    total.merge(overhead.tally);
    std::string why;
    if (!stack->lanes_balance(&why)) errors.push_back("accounting: " + why);

    span_metrics(spec, open, stack->total_workers(), metrics);
    uint64_t rejected = 0, timed_out = 0;
    for (const auto& b : stack->backends())
      for (const auto& lane : b->router->all_stats()) {
        const auto& r = lane.report;
        rejected += r.rejected_full + r.rejected_deadline +
                    r.rejected_invalid + r.rejected_closed;
        timed_out += r.timed_out;
      }
    metrics.push_back({"serve.router.rejected", static_cast<double>(rejected),
                       "count"});
    metrics.push_back({"serve.router.timed_out",
                       static_cast<double>(timed_out), "count"});
    metrics.push_back({"serve.net.frames_in",
                       static_cast<double>(after.frames_in - before.frames_in),
                       "count"});
    metrics.push_back({"serve.net.frames_out",
                       static_cast<double>(after.frames_out - before.frames_out),
                       "count"});
    metrics.push_back({"serve.net.protocol_errors",
                       static_cast<double>(after.protocol_errors -
                                           before.protocol_errors),
                       "count"});
    serve::shard::ShardProxy::Counters pc;
    if (stack->proxy() != nullptr) pc = stack->proxy()->counters();
    metrics.push_back({"serve.shard.move_ms", median(move_ms), "ms"});
    metrics.push_back({"serve.shard.epoch_retries",
                       static_cast<double>(pc.epoch_retries), "count"});
    metrics.push_back({"serve.shard.failovers",
                       static_cast<double>(pc.failovers), "count"});
    metrics.push_back({"serve.shard.exhausted",
                       static_cast<double>(pc.exhausted), "count"});
    const double untraced = median(overhead.untraced_us);
    metrics.push_back({"trace.overhead_us", median(overhead.traced_us) - untraced,
                       "us"});

    diagnostics.push_back({"trace.untraced_call_us", untraced, "us"});
    diagnostics.push_back({"trace.traced_call_us", median(overhead.traced_us),
                           "us"});
    diagnostics.push_back({"trace.overhead_samples",
                           static_cast<double>(overhead.traced_us.size()),
                           "count"});
    diagnostics.push_back({"traced_open_loop_requests",
                           static_cast<double>(open.traces.size()), "count"});
    const std::string spans_dir = args.work_dir + "/../traces";
    std::filesystem::create_directories(spans_dir, ec);
    const std::string spans_path = spans_dir + "/" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".jsonl";
    if (!write_spans(spans_path, open.traces, overhead.traces))
      errors.push_back("could not write spans to " + spans_path);
    else
      std::printf("spans: %s\n", spans_path.c_str());
  }
  stack.reset();  // stop every thread before reporting

  if (total.mismatches != 0)
    errors.push_back(std::to_string(total.mismatches) +
                     " response(s) failed the check");
  // Every request must be answered kOk and every move must complete
  // cleanly, migrations included: one failure fails the run.
  if (total.failed() != 0)
    errors.push_back(std::to_string(total.failed()) + " of " +
                     std::to_string(total.attempted) +
                     " request(s) or move(s) failed");
  for (const std::string& p : total.problems)
    std::printf("problem: %s\n", p.c_str());
  for (const std::string& e : errors)
    std::fprintf(stderr, "servebench: FAIL: %s\n", e.c_str());
  const bool correct = errors.empty();

  std::printf("%s metrics (%s):\n", traced ? "per-layer" : "end-to-end",
              spec.name.c_str());
  print_metrics(metrics);
  print_metrics(unbounded);
  std::printf("diagnostics:\n");
  print_metrics(diagnostics);

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(total.attempted) +
      ", \"failed\": " + std::to_string(total.failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  // The record: the result stamped with host and build, kept on disk.
  const std::string results_dir = args.work_dir + "/../results";
  std::filesystem::create_directories(results_dir, ec);
  const std::string record_path = results_dir + "/" + spec.name + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"seconds\": %g, \"trace\": %d, \"host\": %s, "
                 "\"result\": %s, \"unbounded\": %s, \"diagnostics\": %s}\n",
                 spec.name.c_str(), args.seed, S, args.trace, host.c_str(),
                 result.c_str(), metrics_json(unbounded).c_str(),
                 metrics_json(diagnostics).c_str());
    std::fclose(f);
    std::printf("record: %s\n", record_path.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--git-sha SHA] "
                 "[--src-digest HEX]\n");
    return 2;
  }
  return run(*args);
}
