// Per-layer metrics of the traced run: in-process probes of the engine
// (core, quant) and the registry, and the serve.* layers' times derived
// from the per-stage stamps each traced response carries.
#include <cstdio>
#include <optional>

#include "bench.h"
#include "stats.h"

namespace servebench {

namespace {

using serve::TraceStage;

template <typename F>
double time_us(F&& f) {
  const int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) / 1e3;
}

/// Stamp of `stage` in a response's timeline; the last one when a
/// failover made the backend stages repeat.
std::optional<int64_t> stage_at(const std::vector<serve::TraceEvent>& stages,
                                TraceStage stage) {
  std::optional<int64_t> t;
  for (const serve::TraceEvent& e : stages)
    if (e.stage == stage) t = e.t_us;
  return t;
}

struct Stamps {
  int64_t admitted, batch_formed, worker_start, worker_end, responded;
  std::optional<int64_t> proxy_received, proxy_response;
};

std::optional<Stamps> read_stamps(const RequestTrace& t) {
  const auto adm = stage_at(t.stages, TraceStage::kAdmitted);
  const auto bf = stage_at(t.stages, TraceStage::kBatchFormed);
  const auto ws = stage_at(t.stages, TraceStage::kWorkerStart);
  const auto we = stage_at(t.stages, TraceStage::kWorkerEnd);
  const auto resp = stage_at(t.stages, TraceStage::kResponded);
  if (!adm || !bf || !ws || !we || !resp) return std::nullopt;
  return Stamps{*adm, *bf, *ws, *we, *resp,
                stage_at(t.stages, TraceStage::kProxyReceived),
                stage_at(t.stages, TraceStage::kProxyResponse)};
}

void add(Metrics& out, const std::string& name, double value,
         const std::string& unit) {
  out.push_back({name, value, unit});
}

struct OpSample {
  std::vector<double> us, gmac_s, macs, bytes;
};

}  // namespace

void probe_core(const core::FqBertModel& engine,
                const std::vector<nn::Example>& sample, double budget_s,
                Metrics& out) {
  const auto& layers = engine.encoder_layers();
  // Resident bytes per weight element, from the engine's own total, so
  // the computed traffic follows whatever layout the engine uses.
  double weight_elems = 0.0;
  for (const core::FqEncoderLayer& l : layers)
    for (const core::QuantLinear* q :
         {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2})
      weight_elems += static_cast<double>(q->in * q->out);
  const double bytes_per_weight =
      static_cast<double>(engine.resident_weight_bytes()) / weight_elems;

  std::vector<double> forward, batch8, embed, head, layer, softmax, layernorm,
      gelu;
  OpSample ops[4];  // qkv, out_proj, ffn1, ffn2
  auto record_op = [&](OpSample& s, double us, double macs, double bytes) {
    s.us.push_back(us);
    s.macs.push_back(macs);
    s.bytes.push_back(bytes);
    s.gmac_s.push_back(us > 0.0 ? macs / us / 1e3 : 0.0);
  };

  SplitMix64 rng(0xc0de);
  std::vector<int8_t> x, y, q, k, v, o, mid, f, ln_out;
  std::vector<int32_t> scores, probs, res;
  std::vector<const nn::Example*> batch;
  for (size_t i = 0; i < 8; ++i) batch.push_back(&sample[i % sample.size()]);

  const int64_t deadline = now_ns() + static_cast<int64_t>(budget_s * 1e9);
  for (int round = 0; round < 3 || (now_ns() < deadline && round < 100000);
       ++round) {
    for (const nn::Example& ex : sample) {
      const int64_t s = static_cast<int64_t>(ex.tokens.size());
      forward.push_back(time_us([&] { (void)engine.forward(ex); }));
      embed.push_back(time_us([&] { x = engine.embed(ex); }));
      for (const core::FqEncoderLayer& l : layers) {
        const double h = static_cast<double>(l.hidden);
        const double ffn = static_cast<double>(l.ffn_dim);
        const double rows = static_cast<double>(s);
        layer.push_back(time_us([&] { l.forward(x, y, s); }));
        record_op(ops[0], time_us([&] {
                    l.wq.forward_i8(x, q, s);
                    l.wk.forward_i8(x, k, s);
                    l.wv.forward_i8(x, v, s);
                  }),
                  3 * rows * h * h,
                  3 * (h * h * bytes_per_weight + rows * h + rows * h));
        record_op(ops[1], time_us([&] { l.wo.forward_i8(x, o, s); }),
                  rows * h * h, h * h * bytes_per_weight + 2 * rows * h);
        record_op(ops[2], time_us([&] { l.ffn1.forward_i8(x, mid, s); }),
                  rows * h * ffn,
                  h * ffn * bytes_per_weight + rows * h + rows * ffn);
        record_op(ops[3], time_us([&] { l.ffn2.forward_i8(mid, f, s); }),
                  rows * ffn * h,
                  ffn * h * bytes_per_weight + rows * ffn + rows * h);
        // Softmax over every head's S x S scores; synthetic int32
        // scores (the LUT kernel's cost does not depend on them).
        scores.resize(static_cast<size_t>(s * s));
        for (int32_t& sc : scores)
          sc = static_cast<int32_t>(rng.next() % 4096) - 2048;
        softmax.push_back(time_us([&] {
          for (int64_t head_i = 0; head_i < l.num_heads; ++head_i)
            l.apply_softmax(scores, probs, s);
        }));
        res.resize(static_cast<size_t>(s * l.hidden));
        for (int32_t& r : res) r = static_cast<int32_t>(rng.next() % 512) - 256;
        layernorm.push_back(time_us([&] {
          l.apply_layernorm(res, ln_out, s, /*first=*/true);
          l.apply_layernorm(res, ln_out, s, /*first=*/false);
        }));
        f.resize(mid.size());
        gelu.push_back(time_us([&] {
          for (size_t i = 0; i < mid.size(); ++i) f[i] = l.gelu->apply(mid[i]);
        }));
        x.swap(y);
      }
      head.push_back(time_us([&] { (void)engine.head(x); }));
    }
    batch8.push_back(time_us([&] { (void)engine.forward_batch(batch); }) / 8.0);
  }

  const double layer_us = median(layer);
  double timed_ops = median(softmax) + median(layernorm) + median(gelu);
  add(out, "core.forward_us", median(forward), "us");
  add(out, "core.forward_batch8_us", median(batch8), "us");
  add(out, "core.embed_us", median(embed), "us");
  add(out, "core.head_us", median(head), "us");
  add(out, "core.layer_us", layer_us, "us");
  const char* names[4] = {"qkv", "out_proj", "ffn1", "ffn2"};
  for (int i = 0; i < 4; ++i) {
    const std::string p = std::string("core.op.") + names[i];
    const double us = median(ops[i].us);
    timed_ops += us;
    add(out, p + ".us", us, "us");
    add(out, p + ".gmac_s", median(ops[i].gmac_s), "GMAC/s");
    add(out, p + ".bytes", median(ops[i].bytes), "bytes");
    std::printf("  %-22s %12.0f MAC/call (computed)  %10.0f bytes/call "
                "(computed)  %8.3f GMAC/s (measured)\n",
                p.c_str(), median(ops[i].macs), median(ops[i].bytes),
                median(ops[i].gmac_s));
  }
  add(out, "core.op.attn_glue_us", layer_us - timed_ops, "us");
  add(out, "quant.softmax_us", median(softmax), "us");
  add(out, "quant.layernorm_us", median(layernorm), "us");
  add(out, "quant.gelu_us", median(gelu), "us");
}

bool probe_registry(const WorkloadSpec& spec, const std::string& engine_path,
                    int reps, Metrics& out, std::string* error) {
  // The tier derived here is the workload's own extra tier, or int8
  // from an int4 file when the workload serves a single tier.
  const int other = spec.derived_tiers.empty() ? 8 : spec.derived_tiers[0];
  std::vector<double> load_ms, derive_ms;
  for (int i = 0; i < reps; ++i) {
    serve::EngineRegistry registry;
    bool ok = true;
    load_ms.push_back(time_us([&] {
      ok = registry.register_file("probe", engine_path);
    }) / 1e3);
    if (!ok) {
      *error = "registry probe could not load " + engine_path;
      return false;
    }
    derive_ms.push_back(time_us([&] {
      ok = registry.register_derived("probe", other);
    }) / 1e3);
    if (!ok) {
      *error = "registry probe could not derive tier " + std::to_string(other);
      return false;
    }
  }
  add(out, "serve.registry.load_ms", median(load_ms), "ms");
  add(out, "serve.registry.derive_ms", median(derive_ms), "ms");
  return true;
}

void span_metrics(const WorkloadSpec& spec, const OpenLoopResult& open,
                  size_t workers, Metrics& out) {
  std::vector<double> queue, dispatch, router_self, net_self, hop;
  double inverse_batch = 0.0, busy_us = 0.0;
  size_t n = 0;
  for (const RequestTrace& t : open.traces) {
    const auto st = read_stamps(t);
    if (!st || t.batch_size <= 0) continue;
    ++n;
    queue.push_back(static_cast<double>(st->batch_formed - st->admitted));
    dispatch.push_back(static_cast<double>(st->worker_start - st->batch_formed));
    router_self.push_back(static_cast<double>(
        self_time({st->admitted, st->responded},
                  {{st->worker_start, st->worker_end}})));
    inverse_batch += 1.0 / t.batch_size;
    // Each batch's worker span, shared by its batch_size requests.
    busy_us += static_cast<double>(st->worker_end - st->worker_start) /
               t.batch_size;
    const int64_t call_us = (t.end_ns - t.start_ns) / 1000;
    Interval inner{st->admitted, st->responded};  // what the call waited on
    if (spec.proxy && st->proxy_received && st->proxy_response) {
      hop.push_back(static_cast<double>(self_time(
          {*st->proxy_received, *st->proxy_response}, {inner})));
      inner = {*st->proxy_received, *st->proxy_response};
    }
    net_self.push_back(static_cast<double>(
        self_time({0, call_us}, {{0, inner.end - inner.begin}})));
  }
  const double wall_us = open.wall_s * 1e6;
  add(out, "serve.router.queue_us", median(queue), "us");
  add(out, "serve.router.dispatch_us", median(dispatch), "us");
  add(out, "serve.router.self_us", median(router_self), "us");
  add(out, "serve.router.batch_size_mean",
      inverse_batch > 0.0 ? static_cast<double>(n) / inverse_batch : 0.0,
      "requests");
  add(out, "serve.router.worker_busy",
      workers > 0 && wall_us > 0.0
          ? busy_us / (static_cast<double>(workers) * wall_us)
          : 0.0,
      "ratio");
  add(out, "serve.net.self_us", median(net_self), "us");
  add(out, "serve.net.encode_ns", median(open.encode_ns), "ns");
  add(out, "serve.net.decode_ns", median(open.decode_ns), "ns");
  add(out, "serve.shard.hop_us", median(hop), "us");
}

bool write_spans(const std::string& path,
                 const std::vector<RequestTrace>& open,
                 const std::vector<RequestTrace>& calls) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // One line per span. The client's call span is on the client clock
  // (ns); spans derived from a response's stamps are on that hop's
  // clock (us from the hop's first event), parented by name.
  auto emit = [&](const RequestTrace& t, const char* phase) {
    std::fprintf(f,
                 "{\"trace\":\"%016llx\",\"phase\":\"%s\",\"span\":"
                 "\"client.call\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(t.trace_id), phase,
                 static_cast<long long>(t.start_ns),
                 static_cast<long long>(t.end_ns));
    const auto st = read_stamps(t);
    if (!st) return;
    auto child = [&](const char* span, const char* parent, int64_t b,
                     int64_t e) {
      std::fprintf(f,
                   "{\"trace\":\"%016llx\",\"span\":\"%s\",\"parent\":\"%s\","
                   "\"start_us\":%lld,\"end_us\":%lld}\n",
                   static_cast<unsigned long long>(t.trace_id), span, parent,
                   static_cast<long long>(b), static_cast<long long>(e));
    };
    const char* router_parent = "client.call";
    if (st->proxy_received && st->proxy_response) {
      child("serve.shard.hop", "client.call", *st->proxy_received,
            *st->proxy_response);
      router_parent = "serve.shard.hop";
    }
    child("serve.router.request", router_parent, st->admitted, st->responded);
    child("serve.router.queue", "serve.router.request", st->admitted,
          st->batch_formed);
    child("serve.router.dispatch", "serve.router.request", st->batch_formed,
          st->worker_start);
    child("core.forward_batch", "serve.router.request", st->worker_start,
          st->worker_end);
  };
  for (const RequestTrace& t : open) emit(t, "open");
  for (const RequestTrace& t : calls) emit(t, "call");
  return std::fclose(f) == 0;
}

}  // namespace servebench
