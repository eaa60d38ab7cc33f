// Workload definitions, deterministic engine fixtures, and the
// reference logits every response is checked against.
#include <cstring>

#include "bench.h"
#include "core/qat.h"
#include "nn/bert.h"
#include "serve/loadgen.h"
#include "stats.h"
#include "tensor/rng.h"

namespace servebench {

namespace {

// Fixture seeds are fixed: the engine under test is the same on every
// run and every commit; only the request inputs follow --seed.
constexpr uint64_t kEngineSeed = 0x5eb0'0001ull;
constexpr uint64_t kCalibSeed = 0x5eb0'0002ull;

nn::BertConfig mini_config() {
  nn::BertConfig c;  // MiniBERT: L2, h64, 4 heads, ffn 256, max_seq 32
  c.vocab_size = 512;
  c.hidden = 64;
  c.num_layers = 2;
  c.num_heads = 4;
  c.ffn_dim = 256;
  c.max_seq_len = 32;
  c.num_classes = 2;
  return c;
}

/// Every length from `lo` to `hi`.
std::vector<int64_t> seq_range(int64_t lo, int64_t hi) {
  std::vector<int64_t> lens;
  for (int64_t n = lo; n <= hi; ++n) lens.push_back(n);
  return lens;
}

nn::BertConfig base_config() {
  nn::BertConfig c = mini_config();
  c.hidden = 256;
  c.num_layers = 4;
  c.ffn_dim = 1024;
  c.max_seq_len = 128;
  return c;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec mini;
  mini.name = "mini-default";
  mini.config = mini_config();
  mini.file_bits = 4;
  mini.router = serve::RouterConfig{};  // shipped defaults
  mini.seq_choices = {12, 16, 24};
  mini.open_rate_rps = 2000.0;
  mini.targets = {{"mini", 0}};
  mini.pool_size = 512;
  all.push_back(mini);

  WorkloadSpec base;
  base.name = "base-tiers";
  base.config = base_config();
  base.file_bits = 8;
  base.derived_tiers = {4};
  base.router = serve::RouterConfig{};
  base.seq_choices = seq_range(64, 128);
  base.open_rate_rps = 20.0;
  base.targets = {{"base", 8}, {"base", 4}};
  base.pool_size = 32;
  all.push_back(base);

  WorkloadSpec churn;
  churn.name = "proxy-churn";
  churn.proxy = true;
  churn.config = mini_config();
  churn.file_bits = 4;
  churn.router = serve::RouterConfig{};
  churn.router.batcher.max_wait = serve::Micros(0);  // hold-back off
  churn.seq_choices = seq_range(2, 6);
  churn.open_rate_rps = 2000.0;
  // "mini" is replicated on both backends; "mover" (the same engine
  // file under a second name) migrates between them.
  churn.targets = {{"mini", 0}, {"mover", 0}};
  churn.pool_size = 512;
  all.push_back(churn);
  return all;
}

int64_t draw_seq_len(const WorkloadSpec& spec, SplitMix64& rng) {
  return spec.seq_choices[rng.next() % spec.seq_choices.size()];
}

std::vector<float> to_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = build_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string write_engine_file(const WorkloadSpec& spec,
                              const std::string& dir) {
  Rng rng(kEngineSeed);
  nn::BertModel model(spec.config, rng);
  core::FqQuantConfig qcfg = core::FqQuantConfig::full();
  qcfg.weight_bits = spec.file_bits;
  core::QatBert qat(model, qcfg);
  // A few calibration sequences spanning the workload's lengths.
  std::vector<nn::Example> calib;
  SplitMix64 lens(kCalibSeed);
  Rng tokens(kCalibSeed);
  for (int i = 0; i < 6; ++i)
    calib.push_back(
        serve::synth_example(tokens, draw_seq_len(spec, lens), spec.config));
  qat.calibrate(calib);
  const core::FqBertModel engine = core::FqBertModel::convert(qat);
  const std::string path = dir + "/" + spec.name + "-w" +
                           std::to_string(spec.file_bits) + ".fqb";
  return engine.save_mapped(path) ? path : "";
}

std::vector<nn::Example> make_pool(const WorkloadSpec& spec, uint64_t seed) {
  // Lengths are stratified (every allowed length equally often, in a
  // seeded order) so the seed changes tokens and order, not the length
  // mix a run's cost depends on; tokens come from the seed.
  std::vector<int64_t> lens;
  const size_t n_choices = spec.seq_choices.size();
  for (size_t i = 0; i < spec.pool_size; ++i)
    lens.push_back(spec.seq_choices[i * n_choices / spec.pool_size]);
  SplitMix64 order(seed * 0x9e3779b97f4a7c15ull + 1);
  for (size_t i = lens.size(); i > 1; --i)
    std::swap(lens[i - 1], lens[order.next() % i]);
  Rng tokens(seed);
  std::vector<nn::Example> pool;
  pool.reserve(spec.pool_size);
  for (int64_t len : lens)
    pool.push_back(serve::synth_example(tokens, len, spec.config));
  return pool;
}

std::vector<uint32_t> example_cycle(size_t pool_size, size_t n,
                                    uint64_t seed) {
  std::vector<uint32_t> perm(pool_size);
  for (size_t i = 0; i < pool_size; ++i) perm[i] = static_cast<uint32_t>(i);
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<uint32_t> out;
  out.reserve(n);
  while (out.size() < n) {
    for (size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.next() % i]);
    for (size_t i = 0; i < perm.size() && out.size() < n; ++i)
      out.push_back(perm[i]);
  }
  return out;
}

Checker::Checker(const WorkloadSpec& spec, const std::string& engine_path,
                 std::vector<nn::Example> pool)
    : spec_(spec), pool_(std::move(pool)) {
  auto file_engine = std::make_shared<const core::FqBertModel>(
      core::FqBertModel::load_any(engine_path));
  engines_[spec.file_bits] = file_engine;
  for (int bits : spec.derived_tiers)
    engines_[bits] = std::make_shared<const core::FqBertModel>(
        file_engine->derive_tier(bits));
  for (const auto& [bits, engine] : engines_) {
    std::vector<std::vector<float>>& out = logits_[bits];
    out.reserve(pool_.size());
    for (const nn::Example& ex : pool_) out.push_back(to_vector(engine->forward(ex)));
  }
}

bool Checker::matches(const serve::ServeResponse& resp, size_t example,
                      size_t target, std::string* why) const {
  const Target& t = spec_.targets[target];
  const int bits = resolved_bits(spec_, t);
  if (resp.status != serve::RequestStatus::kOk) {
    *why = std::string("status ") + serve::request_status_name(resp.status);
    return false;
  }
  if (resp.tier != bits) {
    *why = "served at tier " + std::to_string(resp.tier) + ", asked " +
           std::to_string(bits);
    return false;
  }
  const std::vector<float>& want = logits_.at(bits)[example];
  // Bit-identity: compare the IEEE-754 patterns, not float equality.
  if (resp.logits.size() != want.size() ||
      std::memcmp(resp.logits.data(), want.data(),
                  want.size() * sizeof(float)) != 0) {
    *why = "logits differ from the in-process forward (model " + t.model +
           ", tier " + std::to_string(bits) + ", example " +
           std::to_string(example) + ")";
    return false;
  }
  return true;
}

}  // namespace servebench
