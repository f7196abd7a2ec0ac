/**
 * @file
 * The per-layer metric set of a traced run (--trace 1).
 *
 * Every traced run reports every name in the set, whatever its
 * workload: a layer the workload does not pass through (serve and
 * loadgen on the batch workloads, per-gate memo timings inside the
 * fleet's engines, a deeper layer than the network has) stays 0. The
 * names and units are the ones BENCHMARK.json lists under per_layer;
 * perfbench/selftest.py checks that the two agree.
 */

#ifndef PERFBENCH_LAYER_METRICS_HH
#define PERFBENCH_LAYER_METRICS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class LayerMetrics
{
  public:
    /** Every per-layer metric, at 0. */
    LayerMetrics();

    /** Set a metric by name; fatal when the name is not in the set. */
    void set(const std::string &name, double value);

    /** memo.gate_ms.L<layer>.<gate>. */
    void gateMs(std::size_t layer, const std::string &gate, double ms);

    /** Append every metric, in set order, to @p result. */
    void exportTo(RunResult &result) const;

  private:
    std::vector<Metric> metrics_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_METRICS_HH
