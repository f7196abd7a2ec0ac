/**
 * @file
 * Closed-batch workloads (ds2-batch, imdb-batch): one batch of seeded
 * sequences through RnnNetwork::forwardBatch with a BatchMemoEngine
 * (memoized) and through forwardBatchBaseline (exact), pass after pass,
 * on ThreadPool::global() with one chunk per pool thread.
 *
 * Untraced (--trace 0) the run reports the end-to-end metrics. Traced
 * (--trace 1) it wraps the engine in TimedEvaluator, attaches the
 * engine's public phase sink, and reports the memo / nn / tensor layer
 * split; serve and loadgen metrics are 0 because nothing is served.
 */

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common.hh"
#include "common/parallel.hh"
#include "layer_metrics.hh"
#include "memo/memo_batch.hh"
#include "nn/serialize.hh"
#include "workloads/evaluators.hh"

namespace perfbench
{

namespace
{

using namespace nlfm;

/** Pinned parameters of one batch workload. */
struct BatchConfig
{
    const char *network;
    double theta;
    std::size_t sequences; ///< per pass
    std::size_t steps;     ///< per sequence
    /// Leading passes whose outputs are scored (reuse_pct, loss_pts):
    /// a fixed count, so both are a function of the seed alone. The
    /// run makes at least this many passes.
    std::size_t scoredPasses;
};

// ds2-batch: theta near the paper's 1 %-WER point on DeepSpeech2 (low
// reuse, miss-FMA-bound). imdb-batch: a high theta (~40 % reuse), where
// probe and decide are a large share of the gate time.
constexpr BatchConfig kDs2{"DeepSpeech2", 0.08, 16, 80, 20};
constexpr BatchConfig kImdb{"IMDB", 0.5, 1024, 100, 10};


/**
 * Timing decorator around a BatchGateEvaluator: per worker thread, the
 * time spent in each gate instance and the interval between the
 * thread's first gate call and its last within a pass. Gate times are
 * summed over workers (CPU time); a thread's interval minus its gate
 * time is the cell's own work on that thread.
 */
class TimedEvaluator : public nn::BatchGateEvaluator
{
  public:
    TimedEvaluator(nn::BatchGateEvaluator &inner, std::size_t gates)
        : inner_(inner), gates_(gates)
    {
    }

    void beginBatch(std::size_t total) override { inner_.beginBatch(total); }

    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override
    {
        Worker &w = worker();
        const auto start = Clock::now();
        inner_.evaluateGateBatch(instance, params, x, h, rows, slot_base,
                                 preact);
        const auto end = Clock::now();
        if (w.first == Clock::time_point{})
            w.first = start;
        w.last = end;
        w.gateNs[instance.instanceId] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count());
    }

    /** Zero every worker's counters (between passes only). */
    void resetPass()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Worker &w : workers_) {
            w.first = w.last = Clock::time_point{};
            std::fill(w.gateNs.begin(), w.gateNs.end(), 0);
        }
    }

    /** Per-gate ns summed over workers, for the pass just run. */
    std::vector<double> gateNs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out(gates_, 0.0);
        for (const Worker &w : workers_)
            for (std::size_t g = 0; g < gates_; ++g)
                out[g] += static_cast<double>(w.gateNs[g]);
        return out;
    }

    /** Sum over workers of first-gate-start to last-gate-end, in ns. */
    double busyNs() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        double total = 0.0;
        for (const Worker &w : workers_)
            if (w.first != Clock::time_point{})
                total += std::chrono::duration<double, std::nano>(w.last -
                                                                  w.first)
                             .count();
        return total;
    }

  private:
    struct Worker
    {
        std::thread::id id;
        Clock::time_point first{}, last{};
        std::vector<std::uint64_t> gateNs;
    };

    Worker &worker()
    {
        const std::thread::id self = std::this_thread::get_id();
        std::lock_guard<std::mutex> lock(mutex_);
        for (Worker &w : workers_)
            if (w.id == self)
                return w;
        workers_.push_back({self, {}, {}, std::vector<std::uint64_t>(gates_)});
        return workers_.back();
    }

    nn::BatchGateEvaluator &inner_;
    std::size_t gates_;
    mutable std::mutex mutex_; ///< guards workers_ (registration, reads)
    std::deque<Worker> workers_;
};

/** The network, mirror and engine one setup builds. */
struct Stack
{
    std::unique_ptr<nn::RnnNetwork> network;
    std::unique_ptr<nn::BinarizedNetwork> bnn;
    std::unique_ptr<memo::BatchMemoEngine> engine;
};

Stack
setUp(const std::string &path, const memo::MemoOptions &memo)
{
    Stack stack;
    stack.network = nn::loadNetwork(path);
    stack.bnn = std::make_unique<nn::BinarizedNetwork>(*stack.network);
    stack.engine = std::make_unique<memo::BatchMemoEngine>(
        *stack.network, stack.bnn.get(), memo);
    return stack;
}

/** Per-pass measurements of the traced run (ns are summed over
 *  workers, so they are CPU time). */
struct TracedPass
{
    std::vector<double> gateNs;
    double busyNs = 0.0;
    double probeNs = 0.0, decideNs = 0.0, commitNs = 0.0;
};

} // namespace

RunResult
runBatchWorkload(const RunOptions &options)
{
    const BatchConfig &cfg = options.workload == "ds2-batch" ? kDs2 : kImdb;
    const workloads::NetworkSpec &spec = workloads::specByName(cfg.network);
    RunResult result;

    // ---- prep (not timed): zoo weights to a model file.
    std::filesystem::create_directories(options.modelDir);
    const std::string path = options.modelDir + "/" + cfg.network + ".nlfm";
    auto zoo = workloads::buildWorkload(spec, 4, 2);
    nn::saveNetwork(*zoo->network, path);
    workloads::WorkloadEvaluator scorer(*zoo);
    // The scorer decodes with the zoo's head only (decodeSequence,
    // scoreLoss); free the zoo's copy of the weights.
    zoo->network.reset();
    zoo->bnn.reset();

    ThreadPool &pool = ThreadPool::global();
    const std::size_t threads = pool.threadCount();
    nn::BatchForwardOptions forward;
    forward.pool = &pool;
    forward.chunkSize = (cfg.sequences + threads - 1) / threads;
    const std::size_t chunks =
        (cfg.sequences + forward.chunkSize - 1) / forward.chunkSize;
    result.threads = threads - 1;

    memo::MemoOptions memo;
    memo.predictor = memo::PredictorKind::Bnn;
    memo.theta = cfg.theta;

    // ---- setup (timed): load + BNN mirror + engine, median of repeats.
    std::vector<double> setup_s;
    Stack stack;
    while (!setupDone(setup_s)) {
        stack = Stack{};
        const auto start = Clock::now();
        stack = setUp(path, memo);
        setup_s.push_back(secondsSince(start));
    }
    std::filesystem::remove(path);
    nn::RnnNetwork &network = *stack.network;
    memo::BatchMemoEngine &engine = *stack.engine;
    memo::MemoEngine serial(network, stack.bnn.get(), memo);

    result.param("network", cfg.network);
    result.param("cell", network.config().describe());
    result.param("theta", std::to_string(cfg.theta));
    result.param("sequences_per_pass", std::to_string(cfg.sequences));
    result.param("steps", std::to_string(cfg.steps));
    result.param("chunk_size", std::to_string(forward.chunkSize));
    result.param("pool_threads", std::to_string(threads));
    result.count("setup_repeats", setup_s.size());

    // Traced passes, their timing decorator and the engine's phase sink.
    memo::GatePhaseTimes phases;
    TimedEvaluator timed(engine, network.gateInstances().size());
    std::vector<TracedPass> traced;
    std::vector<double> traced_ms;

    // ---- measured loop: each pass is a fresh seeded batch, run exact
    // (the reference) then memoized; the first batch warms up untimed.
    const InputMaker maker(spec);
    Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 0xba7c4);
    std::vector<double> exact_ms, memo_ms;
    std::vector<metrics::TokenSeq> exact_dec, memo_dec;
    std::uint64_t reused = 0, attempted_neurons = 0;
    const double budget = options.trace ? options.seconds * 0.75
                                        : options.seconds;
    double measured = 0.0;
    for (std::size_t pass = 0; pass < cfg.scoredPasses || measured < budget;
         ++pass) {
        Rng batch_rng = rng.fork(pass);
        std::vector<nn::Sequence> inputs;
        for (std::size_t i = 0; i < cfg.sequences; ++i) {
            Rng seq_rng = batch_rng.fork(i);
            inputs.push_back(maker.make(cfg.steps, seq_rng));
        }
        const bool timed_pass = pass > 0;

        auto start = Clock::now();
        const auto exact = network.forwardBatchBaseline(inputs, forward);
        const double e_ms = msSince(start);
        start = Clock::now();
        const auto memoized = network.forwardBatch(inputs, engine, forward);
        const double m_ms = msSince(start);
        const memo::ReuseStats stats = engine.stats();

        // Output check, one sequence per pass, rotating over the chunks
        // so every pool worker's chunk is covered: the memoized output
        // and reuse against the serial MemoEngine, the exact output
        // against forwardBaseline.
        const std::size_t chunk = pass % chunks;
        const std::size_t begin = chunk * forward.chunkSize;
        const std::size_t i =
            begin + batch_rng.uniformInt(std::min(forward.chunkSize,
                                                  inputs.size() - begin));
        serial.resetStats();
        const bool memo_ok =
            sameBits(network.forward(inputs[i], serial), memoized[i]) &&
            serial.stats().reuseFraction() == engine.slotReuseFraction(i);
        const bool exact_ok =
            sameBits(network.forwardBaseline(inputs[i]), exact[i]);
        if (!memo_ok || !exact_ok) {
            ++result.mismatches;
            note("output mismatch: pass " + std::to_string(pass) +
                 " sequence " + std::to_string(i) +
                 (memo_ok ? "" : " (memoized vs serial MemoEngine)") +
                 (exact_ok ? "" : " (exact vs forwardBaseline)"));
        }
        result.attempted += memoized.size();

        if (pass < cfg.scoredPasses) {
            for (std::size_t s = 0; s < inputs.size(); ++s) {
                exact_dec.push_back(scorer.decodeSequence(exact[s]));
                memo_dec.push_back(scorer.decodeSequence(memoized[s]));
            }
            reused += stats.totalReused();
            attempted_neurons += stats.totalSlots();
        }

        if (options.trace) {
            // The same batch again through the decorator + phase sink;
            // outputs must not change.
            engine.setPhaseSink(&phases);
            timed.resetPass();
            const std::uint64_t p0 = phases.probeNs.load();
            const std::uint64_t d0 = phases.decideNs.load();
            const std::uint64_t c0 = phases.commitNs.load();
            start = Clock::now();
            const auto again = network.forwardBatch(inputs, timed, forward);
            const double t_ms = msSince(start);
            engine.setPhaseSink(nullptr);
            for (std::size_t s = 0; s < inputs.size(); ++s)
                if (!sameBits(again[s], memoized[s]))
                    ++result.mismatches;
            if (timed_pass) {
                TracedPass t;
                t.gateNs = timed.gateNs();
                t.busyNs = timed.busyNs();
                t.probeNs = static_cast<double>(phases.probeNs.load() - p0);
                t.decideNs = static_cast<double>(phases.decideNs.load() - d0);
                t.commitNs = static_cast<double>(phases.commitNs.load() - c0);
                traced.push_back(std::move(t));
                traced_ms.push_back(t_ms);
                measured += t_ms / 1e3;
            }
        }
        if (timed_pass) {
            exact_ms.push_back(e_ms);
            memo_ms.push_back(m_ms);
            measured += (e_ms + m_ms) / 1e3;
        }
    }
    result.failed = std::min(result.mismatches, result.attempted);

    const double loss = scorer.scoreLoss(exact_dec, memo_dec);
    const double reuse_pct = 100.0 * static_cast<double>(reused) /
                             static_cast<double>(attempted_neurons);
    const double n = static_cast<double>(cfg.sequences);
    const double memo_rate = n / (median(memo_ms) / 1e3);
    const double ok_share = 1.0 - static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted);
    result.count("passes", memo_ms.size() + 1);
    result.count("latency_samples", memo_ms.size());
    result.param("scored_sequences", std::to_string(memo_dec.size()));
    note(options.workload + ": " + std::to_string(memo_ms.size()) +
         " timed passes; memo median " + std::to_string(median(memo_ms)) +
         " ms, exact median " + std::to_string(median(exact_ms)) +
         " ms; reuse " + std::to_string(reuse_pct) + " %; loss " +
         std::to_string(loss) + " pts over " +
         std::to_string(memo_dec.size()) + " sequences");

    if (!options.trace) {
        result.add("seq_per_s", memo_rate, "1/s");
        result.add("exact_seq_per_s", n / (median(exact_ms) / 1e3), "1/s");
        result.add("reuse_pct", reuse_pct, "%");
        result.add("loss_pts", loss, "pts");
        result.add("goodput_rps", memo_rate * ok_share, "1/s");
        result.add("deadline_met_pct", 100.0 * ok_share, "%");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        // Closed batch: every sequence of a pass completes when the
        // pass returns, so a sequence's latency is its pass's time.
        result.addUnbounded("p50_ms", percentile(memo_ms, 50), "ms");
        result.addUnbounded("p99_ms", percentile(memo_ms, 99), "ms");
        return result;
    }

    // ---- traced: per-pass medians in ms (gate, phase and self times
    // are CPU ms summed over the pool's workers).
    LayerMetrics layers;
    const auto &instances = network.gateInstances();
    const auto per_pass = [&](auto field) {
        std::vector<double> values;
        for (const TracedPass &t : traced)
            values.push_back(field(t) / 1e6);
        return median(values);
    };
    for (const auto &inst : instances)
        layers.gateMs(inst.layer,
                      nn::gateName(network.config().cellType, inst.gate),
                      per_pass([&](const TracedPass &t) {
                          return t.gateNs[inst.instanceId];
                      }));
    const double probe_ms =
        per_pass([](const TracedPass &t) { return t.probeNs; });
    const double decide_ms =
        per_pass([](const TracedPass &t) { return t.decideNs; });
    const double commit_ms =
        per_pass([](const TracedPass &t) { return t.commitNs; });
    layers.set("memo.probe_ms", probe_ms);
    layers.set("memo.decide_ms", decide_ms);
    layers.set("memo.commit_ms", commit_ms);
    layers.set("memo.commit_share_pct",
               100.0 * commit_ms / (probe_ms + decide_ms + commit_ms));
    const auto layer_reuse =
        memo::layerReuseFractions(engine.stats(), instances);
    for (std::size_t l = 0; l < layer_reuse.size(); ++l)
        layers.set("memo.reuse_pct.L" + std::to_string(l),
                   100.0 * layer_reuse[l]);
    layers.set("memo.neurons_attempted",
               static_cast<double>(attempted_neurons));
    layers.set("memo.neurons_reused", static_cast<double>(reused));
    layers.set("memo.trace_overhead_pct",
               100.0 * (median(traced_ms) / median(memo_ms) - 1.0));
    layers.set("nn.forward_batch_ms", median(memo_ms));
    layers.set("nn.exact_forward_batch_ms", median(exact_ms));
    layers.set("nn.cell_self_ms", per_pass([](const TracedPass &t) {
                   double gates = 0.0;
                   for (const double ns : t.gateNs)
                       gates += ns;
                   return t.busyNs - gates;
               }));

    // Kernel micro-timings on this network's top-layer gate shapes.
    const nn::GateInstance &top = instances.back();
    KernelShape shape;
    shape.neurons = top.neurons;
    shape.xSize = top.xSize;
    shape.hSize = top.hSize;
    shape.batch = forward.chunkSize;
    measureKernels(shape, options.seed, options.seconds * 0.25, layers);

    layers.exportTo(result);
    return result;
}

} // namespace perfbench
