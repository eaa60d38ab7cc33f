// Load generation from outside the stack: the pipelined open loop, the
// closed loop, the tracing-overhead probe, and the proxy moves.
#include <algorithm>

#include "bench.h"
#include "serve/net/frame.h"
#include "serve/net/transport_client.h"
#include "stats.h"

namespace servebench {

namespace net = fqbert::serve::net;

namespace {

constexpr serve::Micros kConnectTimeout{2'000'000};
constexpr serve::Micros kRecvTimeout{10'000'000};

/// Per-request outcome slots of the open loop (each written by exactly
/// one receiver thread, read after the join).
enum Outcome : uint8_t { kPending = 0, kOk, kNonOk, kMismatch };

bool connect_client(net::TransportClient& client, uint16_t port) {
  client.set_timeouts(kConnectTimeout, kRecvTimeout);
  return client.connect("127.0.0.1", port);
}

RequestTrace make_trace(const serve::ServeResponse& resp, int64_t start_ns,
                        int64_t end_ns) {
  RequestTrace t;
  t.trace_id = resp.trace_id;
  t.start_ns = start_ns;
  t.end_ns = end_ns;
  t.batch_size = resp.batch_size;
  t.stages = resp.trace;
  return t;
}

/// One closed-loop request: the seeded example / target choice, one
/// TransportClient::call, and the check.
struct CallOutcome {
  bool ok = false;
  double call_us = 0.0;
};

CallOutcome checked_call(net::TransportClient& client, const Checker& checker,
                         const std::vector<uint32_t>& cycle, uint64_t index,
                         bool traced, Tally& tally,
                         std::vector<RequestTrace>* traces) {
  const WorkloadSpec& spec = checker.spec();
  const size_t example = cycle[index % cycle.size()];
  const size_t target = index % spec.targets.size();
  const Target& t = spec.targets[target];
  const uint64_t trace_id = traced ? serve::mint_trace_id() : 0;
  ++tally.attempted;
  const int64_t start = now_ns();
  const auto resp = client.call(checker.pool()[example], std::nullopt,
                                t.model, trace_id, t.tier);
  const int64_t end = now_ns();
  CallOutcome out;
  if (!resp) {
    ++tally.transport_failures;
    tally.note("transport failure: " + client.error());
    return out;
  }
  std::string why;
  if (!checker.matches(*resp, example, target, &why)) {
    if (resp->status != serve::RequestStatus::kOk) {
      ++tally.non_ok;
    } else {
      ++tally.mismatches;
    }
    tally.note(why);
    return out;
  }
  ++tally.ok;
  out.ok = true;
  out.call_us = static_cast<double>(end - start) / 1e3;
  if (traces != nullptr) traces->push_back(make_trace(*resp, start, end));
  return out;
}

}  // namespace

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  transport_failures += other.transport_failures;
  non_ok += other.non_ok;
  mismatches += other.mismatches;
  for (const std::string& p : other.problems) note(p);
}

OpenLoopResult run_open_loop(uint16_t port, const Checker& checker,
                             uint64_t seed, double duration_s, bool traced) {
  const WorkloadSpec& spec = checker.spec();
  const std::vector<int64_t> due =
      poisson_schedule_ns(seed * 0x2545f4914f6cdd1dull + 11,
                          spec.open_rate_rps, duration_s);
  const size_t n = due.size();
  const std::vector<uint32_t> example =
      example_cycle(checker.pool().size(), n, seed + 5);

  std::vector<int64_t> send_ns(n, 0), recv_ns(n, 0);
  std::vector<uint8_t> outcome(n, kPending);
  std::vector<double> encode_ns(traced ? n : 0), decode_ns(traced ? n : 0);
  std::vector<RequestTrace> traces(traced ? n : 0);

  // One client per connection, shared by its sender (send_raw only) and
  // receiver (recv_raw only). On a healthy connection neither call
  // writes client state; a failure in either ends that connection's
  // traffic, and its unanswered requests count as transport failures.
  struct Conn {
    net::TransportClient client;
    std::atomic<uint64_t> sent{0};
    std::atomic<bool> sender_done{false};
    Tally tally;  // receiver-side problems
    std::string send_error;
  };
  const size_t conns = kOpenConnections;
  std::vector<std::unique_ptr<Conn>> pool;
  OpenLoopResult result;
  for (size_t c = 0; c < conns; ++c) {
    pool.push_back(std::make_unique<Conn>());
    if (!connect_client(pool.back()->client, port)) {
      result.tally.attempted = n;
      result.tally.transport_failures = n;
      result.tally.note("connect failed: " + pool.back()->client.error());
      return result;
    }
  }

  // Every thread is up before the first request is due.
  const int64_t t0 = now_ns() + 20'000'000;
  auto sender = [&](size_t c) {
    Conn& conn = *pool[c];
    std::vector<uint8_t> frame;
    for (size_t i = c; i < n; i += conns) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t0 + due[i])));
      const Target& t = spec.targets[i % spec.targets.size()];
      net::WireRequest req;
      req.correlation_id = i + 1;
      req.trace_id = traced ? serve::mint_trace_id() : 0;
      req.tier = t.tier;
      req.model = t.model;
      req.example = checker.pool()[example[i]];
      frame.clear();
      const int64_t e0 = now_ns();
      net::encode_serve_request(req, frame);
      const int64_t e1 = now_ns();
      if (traced) encode_ns[i] = static_cast<double>(e1 - e0);
      // The call span opens as the frame goes out: the server may take
      // the request before send_raw returns to this thread.
      send_ns[i] = e1;
      if (!conn.client.send_raw(frame)) {
        conn.send_error = conn.client.error();
        break;
      }
      conn.sent.fetch_add(1, std::memory_order_release);
      conn.sent.notify_one();
    }
    conn.sender_done.store(true, std::memory_order_release);
    conn.sent.notify_one();
  };
  auto receiver = [&](size_t c) {
    Conn& conn = *pool[c];
    const size_t expected = (n + conns - 1 - c) / conns;
    net::FrameHeader hdr;
    std::vector<uint8_t> payload;
    for (size_t k = 0; k < expected; ++k) {
      // Only block on the socket while a request is outstanding.
      uint64_t sent = conn.sent.load(std::memory_order_acquire);
      while (sent <= k && !conn.sender_done.load(std::memory_order_acquire)) {
        conn.sent.wait(sent, std::memory_order_acquire);
        sent = conn.sent.load(std::memory_order_acquire);
      }
      if (conn.sent.load(std::memory_order_acquire) <= k) return;
      if (!conn.client.recv_raw(&hdr, payload)) {
        conn.tally.note("receive failed: " + conn.client.error());
        return;
      }
      const int64_t arrived = now_ns();
      net::WireResponse wr;
      const int64_t d0 = now_ns();
      const bool decoded =
          hdr.type == net::FrameType::kServeResponse &&
          net::decode_serve_response(payload.data(), payload.size(),
                                     hdr.version, &wr);
      const int64_t d1 = now_ns();
      const uint64_t id = wr.correlation_id - 1;
      if (!decoded || wr.correlation_id == 0 || id >= n ||
          id % conns != c || outcome[id] != kPending) {
        ++conn.tally.mismatches;
        conn.tally.note("undecodable or unexpected response frame");
        return;
      }
      recv_ns[id] = arrived;
      if (traced) {
        decode_ns[id] = static_cast<double>(d1 - d0);
        // start_ns (the sender's stamp) is filled in after the join.
        traces[id] = make_trace(wr.response, 0, arrived);
      }
      std::string why;
      if (checker.matches(wr.response, example[id],
                          id % spec.targets.size(), &why)) {
        outcome[id] = kOk;
      } else {
        outcome[id] = wr.response.status == serve::RequestStatus::kOk
                          ? kMismatch
                          : kNonOk;
        conn.tally.note(why);
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back(receiver, c);
    threads.emplace_back(sender, c);
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = static_cast<double>(now_ns() - t0) / 1e9;

  Tally& tally = result.tally;
  for (const auto& conn : pool) {
    if (!conn->send_error.empty()) tally.note("send failed: " + conn->send_error);
    tally.mismatches += conn->tally.mismatches;
    for (const std::string& p : conn->tally.problems) tally.note(p);
  }
  tally.attempted = n;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due_abs = t0 + due[i];
    switch (outcome[i]) {
      case kOk:
        ++tally.ok;
        result.latency_us.push_back(
            static_cast<double>(latency_from_due_ns(due_abs, recv_ns[i])) / 1e3);
        result.lateness_us.push_back(
            static_cast<double>(send_ns[i] - due_abs) / 1e3);
        if (traced) {
          result.encode_ns.push_back(encode_ns[i]);
          result.decode_ns.push_back(decode_ns[i]);
          traces[i].start_ns = send_ns[i];
          result.traces.push_back(std::move(traces[i]));
        }
        break;
      case kNonOk: ++tally.non_ok; break;
      case kMismatch: ++tally.mismatches; break;
      default: ++tally.transport_failures; break;
    }
  }
  return result;
}

ClosedLoopResult run_closed_loop(uint16_t port, const Checker& checker,
                                 uint64_t seed, double duration_s) {
  struct Client {
    net::TransportClient client;
    Tally tally;
  };
  std::vector<std::unique_ptr<Client>> all;
  ClosedLoopResult result;
  for (int k = 0; k < kClosedClients; ++k) {
    all.push_back(std::make_unique<Client>());
    if (!connect_client(all.back()->client, port)) {
      ++result.tally.attempted;
      ++result.tally.transport_failures;
      result.tally.note("connect failed: " + all.back()->client.error());
      return result;
    }
  }
  const int64_t t0 = now_ns() + 5'000'000;
  const int64_t end = t0 + static_cast<int64_t>(duration_s * 1e9);
  std::atomic<int64_t> last{t0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kClosedClients; ++k)
    threads.emplace_back([&, k] {
      Client& c = *all[static_cast<size_t>(k)];
      const std::vector<uint32_t> cycle = example_cycle(
          checker.pool().size(), checker.pool().size(),
          seed + 101 + static_cast<uint64_t>(k));
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(t0)));
      for (uint64_t i = static_cast<uint64_t>(k); now_ns() < end; ++i) {
        (void)checked_call(c.client, checker, cycle, i, false, c.tally, nullptr);
        if (!c.client.connected()) break;  // a transport failure ends it
      }
      const int64_t done = now_ns();
      int64_t seen = last.load();
      while (seen < done && !last.compare_exchange_weak(seen, done)) {
      }
    });
  for (std::thread& t : threads) t.join();
  for (const auto& c : all) result.tally.merge(c->tally);
  result.wall_s = static_cast<double>(last.load() - t0) / 1e9;
  return result;
}

OverheadResult run_overhead_probe(uint16_t port, const Checker& checker,
                                  uint64_t seed, double duration_s) {
  constexpr int kBlock = 8;
  OverheadResult result;
  net::TransportClient client;
  if (!connect_client(client, port)) {
    ++result.tally.attempted;
    ++result.tally.transport_failures;
    result.tally.note("connect failed: " + client.error());
    return result;
  }
  const std::vector<uint32_t> cycle =
      example_cycle(checker.pool().size(), checker.pool().size(), seed + 303);
  const int64_t end = now_ns() + static_cast<int64_t>(duration_s * 1e9);
  uint64_t i = 0;
  for (bool traced = false; now_ns() < end && client.connected();
       traced = !traced) {
    for (int k = 0; k < kBlock && client.connected(); ++k, ++i) {
      const CallOutcome out =
          checked_call(client, checker, cycle, i, traced, result.tally,
                       traced ? &result.traces : nullptr);
      if (out.ok)
        (traced ? result.traced_us : result.untraced_us).push_back(out.call_us);
    }
  }
  return result;
}

MoveLoop::MoveLoop(Stack& stack, const WorkloadSpec& spec,
                   std::string engine_path)
    : stack_(stack),
      spec_(spec),
      path_(std::move(engine_path)),
      thread_([this] { run(); }) {}

MoveLoop::~MoveLoop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void MoveLoop::run() {
  const std::string& mover = spec_.targets[1].model;
  std::string from = stack_.backends()[0]->address;
  std::string to = stack_.backends()[1]->address;
  constexpr int64_t interval = 500'000'000;
  int64_t next = 0;  // first move half an interval into a segment
  bool was_active = false;
  while (!stop_) {
    const bool active = active_;
    if (active && !was_active) next = now_ns() + interval / 2;
    was_active = active;
    if (!active || now_ns() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    next += interval;
    std::string message;
    ++tally_.attempted;
    const int64_t t0 = now_ns();
    const bool ok = stack_.proxy()->admin_move_model(mover, 0, from, to,
                                                     path_, &message);
    const int64_t t1 = now_ns();
    // On success a non-empty message is a warning (e.g. the source kept
    // a dormant engine): the move did not complete cleanly.
    if (!ok || !message.empty()) {
      ++tally_.non_ok;
      tally_.note("move " + from + " -> " + to + ": " + message);
      if (!ok) continue;
    } else {
      ++tally_.ok;
    }
    move_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
    std::swap(from, to);
  }
}

std::vector<double> MoveLoop::stop(Tally* tally) {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  tally->merge(tally_);
  return move_ms_;
}

}  // namespace servebench
