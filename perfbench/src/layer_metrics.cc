#include "layer_metrics.hh"

#include <cstdio>
#include <cstdlib>

namespace perfbench
{

namespace
{

// Gate names per layer: layer 0 covers both networks the batch
// workloads run (IMDB's LSTM gates, DeepSpeech2's GRU gates); layers
// 1-4 exist only in DeepSpeech2.
const char *const kLayer0Gates[] = {"input", "forget", "update",
                                    "output", "reset", "candidate"};
const char *const kGruGates[] = {"update", "reset", "candidate"};
constexpr std::size_t kMaxLayers = 5;

} // namespace

LayerMetrics::LayerMetrics()
{
    const auto add = [&](const std::string &name, const char *unit) {
        metrics_.push_back({name, 0.0, unit});
    };
    add("tensor.dot_lanes_rows.ns", "ns");
    add("tensor.dot_lanes_rows.gbps", "GB/s");
    add("tensor.bnn_dot_panel.ns", "ns");
    add("tensor.bnn_dot_panel.gbps", "GB/s");
    add("tensor.matvec_panel.gflops", "GFLOP/s");
    for (const char *gate : kLayer0Gates)
        add(std::string("memo.gate_ms.L0.") + gate, "ms");
    for (std::size_t l = 1; l < kMaxLayers; ++l)
        for (const char *gate : kGruGates)
            add("memo.gate_ms.L" + std::to_string(l) + "." + gate, "ms");
    add("memo.probe_ms", "ms");
    add("memo.decide_ms", "ms");
    add("memo.commit_ms", "ms");
    add("memo.commit_share_pct", "%");
    for (std::size_t l = 0; l < kMaxLayers; ++l)
        add("memo.reuse_pct.L" + std::to_string(l), "%");
    add("memo.neurons_attempted", "count");
    add("memo.neurons_reused", "count");
    add("memo.trace_overhead_pct", "%");
    add("nn.forward_batch_ms", "ms");
    add("nn.exact_forward_batch_ms", "ms");
    add("nn.cell_self_ms", "ms");
    add("serve.enqueue_us.p50", "us");
    add("serve.enqueue_us.p99", "us");
    add("serve.queue_ms.p50", "ms");
    add("serve.queue_ms.p99", "ms");
    add("serve.service_ms.p50", "ms");
    add("serve.tick.admit_ms", "ms");
    add("serve.tick.session_restore_ms", "ms");
    add("serve.tick.stage_ms", "ms");
    add("serve.tick.step_ms", "ms");
    add("serve.tick.complete_ms", "ms");
    add("serve.ticks", "count");
    add("serve.active_slots_per_tick", "count");
    add("serve.warm_resume_pct", "%");
    add("serve.shed", "count");
    add("serve.trace_overhead_pct", "%");
    add("loadgen.latency_ms.p50", "ms");
    add("loadgen.latency_ms.p99", "ms");
    add("loadgen.late_ms.p99", "ms");
    add("loadgen.late_ms.max", "ms");
    add("loadgen.offered_rps", "1/s");
}

void
LayerMetrics::set(const std::string &name, double value)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric '%s'\n",
                 name.c_str());
    std::abort();
}

void
LayerMetrics::gateMs(std::size_t layer, const std::string &gate, double ms)
{
    set("memo.gate_ms.L" + std::to_string(layer) + "." + gate, ms);
}

void
LayerMetrics::exportTo(RunResult &result) const
{
    for (const Metric &m : metrics_)
        result.metrics.push_back(m);
}

} // namespace perfbench
