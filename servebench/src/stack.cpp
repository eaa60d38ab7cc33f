// The serving stack under test, stood up in this process: registry ->
// router -> transport, and for the proxy workload two such backends
// behind a ShardProxy.
#include <thread>

#include "bench.h"

namespace servebench {

namespace {

/// Registry + router + transport over the given (name, file) bindings,
/// each with the workload's derived tiers beside the file tier.
std::unique_ptr<Backend> start_backend(
    const WorkloadSpec& spec,
    const std::vector<std::pair<std::string, std::string>>& models,
    std::string* error) {
  auto b = std::make_unique<Backend>();
  for (const auto& [name, path] : models) {
    if (!b->registry.register_file(name, path)) {
      *error = "cannot load engine file " + path;
      return nullptr;
    }
    for (int bits : spec.derived_tiers)
      if (!b->registry.register_derived(name, bits)) {
        *error = "cannot derive tier " + std::to_string(bits);
        return nullptr;
      }
  }
  b->router = std::make_unique<serve::ModelRouter>(b->registry, spec.router);
  for (const auto& model : models)
    if (!b->router->add_model(model.first, error)) return nullptr;
  if (!b->router->start()) {
    *error = "router did not start";
    return nullptr;
  }
  b->transport = std::make_unique<serve::net::TransportServer>(
      *b->router, serve::net::TransportConfig{});
  if (!b->transport->start()) {
    *error = "transport did not start";
    return nullptr;
  }
  b->address = "127.0.0.1:" + std::to_string(b->transport->port());
  return b;
}

}  // namespace

Backend::~Backend() {
  if (transport) transport->stop();
  if (router) router->shutdown(/*drain=*/true);
}

std::unique_ptr<Stack> Stack::start(const WorkloadSpec& spec,
                                    const std::string& engine_path,
                                    std::string* error) {
  std::unique_ptr<Stack> stack(new Stack());
  if (!spec.proxy) {
    auto b = start_backend(spec, {{spec.targets[0].model, engine_path}}, error);
    if (!b) return nullptr;
    stack->backends_.push_back(std::move(b));
    return stack;
  }
  // Backend A serves the replicated "mini" and the migrating "mover";
  // backend B serves "mini" until a move brings "mover" over.
  const std::string& replicated = spec.targets[0].model;
  const std::string& mover = spec.targets[1].model;
  auto a = start_backend(spec, {{replicated, engine_path}, {mover, engine_path}},
                         error);
  if (!a) return nullptr;
  auto b = start_backend(spec, {{replicated, engine_path}}, error);
  if (!b) return nullptr;
  serve::shard::ShardProxyConfig pcfg;
  pcfg.policy = serve::shard::PlacementPolicy::kConsistentHash;
  stack->proxy_ = std::make_unique<serve::shard::ShardProxy>(pcfg);
  if (!stack->proxy_->add_backend("127.0.0.1", a->transport->port(),
                                  {replicated, mover}, error) ||
      !stack->proxy_->add_backend("127.0.0.1", b->transport->port(),
                                  {replicated}, error))
    return nullptr;
  stack->backends_.push_back(std::move(a));
  stack->backends_.push_back(std::move(b));
  if (!stack->proxy_->start()) {
    *error = "shard proxy did not start";
    return nullptr;
  }
  return stack;
}

Stack::~Stack() {
  if (proxy_) proxy_->stop();
  backends_.clear();
}

uint16_t Stack::port() const {
  return proxy_ ? proxy_->port() : backends_.front()->transport->port();
}

size_t Stack::served_weight_bytes() const {
  size_t total = 0;
  for (const auto& b : backends_)
    for (const auto& lane : b->router->all_stats())
      if (auto engine = b->registry.get(lane.model, lane.tier))
        total += engine->resident_weight_bytes();
  return total;
}

size_t Stack::total_workers() const {
  size_t n = 0;
  for (const auto& b : backends_) n += b->router->num_workers();
  return n;
}

bool Stack::lanes_balance(std::string* why) const {
  // A response can reach the client a moment before its lane books the
  // completion, so give the bookkeeping up to a second to settle.
  for (int attempt = 0;; ++attempt) {
    std::string problem;
    for (const auto& b : backends_)
      for (const auto& lane : b->router->all_stats()) {
        const auto& r = lane.report;
        if (!r.accounting_balances())
          problem = b->address + " lane " + lane.model + "@" +
                    std::to_string(lane.tier) + ": admitted " +
                    std::to_string(r.admitted) + " != completed " +
                    std::to_string(r.completed) + " + timed_out " +
                    std::to_string(r.timed_out) + " + failed " +
                    std::to_string(r.failed);
      }
    if (problem.empty()) return true;
    if (attempt >= 100) {
      *why = problem;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace servebench
