/**
 * @file
 * Shared pieces of the perfbench binary: the run options, the metric
 * list every workload fills, and small timing/statistics helpers.
 *
 * The binary prints exactly one JSON object on stdout (see record.cc);
 * everything human-readable goes to stderr.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/rnn_layer.hh"
#include "workloads/model_zoo.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the model file written during prep. */
    std::string modelDir;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Key/value description of the workload parameters (record pinning). */
struct Param
{
    std::string key;
    std::string value;
};

/** Everything a workload reports back to main. */
struct RunResult
{
    /** Sequences or requests whose outputs were attempted / failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Output-check mismatches (a subset of failed). */
    std::uint64_t mismatches = 0;
    std::vector<Metric> metrics;
    /// Figures every untraced run also reports, outside BENCHMARK.json's
    /// bounded metrics (see perfbench/README.md, "Latency").
    std::vector<Metric> unbounded;
    /// Workload configuration: identical on every run of a workload.
    std::vector<Param> params;
    /// Per-run counts (repeats, passes, samples): vary with timing.
    std::vector<Param> counts;
    /** Threads the workload ran, besides the main thread. */
    std::size_t threads = 0;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void addUnbounded(const std::string &name, double value,
                      const std::string &unit)
    {
        unbounded.push_back({name, value, unit});
    }
    void param(const std::string &key, const std::string &value)
    {
        params.push_back({key, value});
    }
    void count(const std::string &key, std::size_t value)
    {
        counts.push_back({key, std::to_string(value)});
    }
};

double secondsSince(Clock::time_point start);
double msSince(Clock::time_point start);

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile (q in [0, 100]) of @p values (0 for an empty
 * list).
 */
double percentile(std::vector<double> values, double q);

/**
 * Whether a workload has set up often enough: at least 5 times and for
 * at least 0.3 s in total (setups of small models take well under a
 * millisecond, so their median needs many repeats), at most 200 times.
 * setup_s is the median of the repeats.
 */
bool setupDone(const std::vector<double> &setup_seconds);

/**
 * Whether a workload has set up often enough: at least 5 times and for
 * at least 0.3 s in total (setups of small models take well under a
 * millisecond, so their median needs many repeats), at most 200 times.
 * setup_s is the median of the repeats.
 */
bool setupDone(const std::vector<double> &setup_seconds);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** CPUs this process may run on (sched affinity). */
std::size_t cpuCount();

/** Bitwise equality of two sequences (shape and every float's bits). */
bool sameBits(const nlfm::nn::Sequence &a, const nlfm::nn::Sequence &b);

/**
 * Seeded input generator for one zoo network: AR(1) speech frames for
 * speech networks, Markov token streams through the zoo's fixed
 * embedding table for token networks. The seed drives the inputs only;
 * the weights and the embedding table stay the zoo's.
 */
class InputMaker
{
  public:
    explicit InputMaker(const nlfm::workloads::NetworkSpec &spec);
    ~InputMaker();
    nlfm::nn::Sequence make(std::size_t steps, nlfm::Rng &rng) const;

  private:
    const nlfm::workloads::NetworkSpec &spec_;
    std::unique_ptr<nlfm::workloads::TokenEmbedder> embedder_;
};

/** Log a line to stderr with the "[perfbench]" prefix. */
void note(const std::string &line);

RunResult runBatchWorkload(const RunOptions &options);
RunResult runFleetWorkload(const RunOptions &options);

class LayerMetrics;

/** One gate's shapes, for the tensor.* kernel micro-timings. */
struct KernelShape
{
    std::size_t neurons = 0; ///< rows of one gate
    std::size_t xSize = 0;   ///< forward-input width
    std::size_t hSize = 0;   ///< recurrent-input width
    std::size_t batch = 0;   ///< panel rows (one forwardBatch chunk)
};

/** Time the gate kernels on @p shape for about @p seconds. */
void measureKernels(const KernelShape &shape, std::uint64_t seed,
                    double seconds, LayerMetrics &out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
