#include "memo/memo_engine.hh"

#include <atomic>
#include <cmath>

#include "common/parallel.hh"
#include "memo/memo_decision.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

MemoEngine::MemoEngine(const nn::RnnNetwork &network,
                       nn::BinarizedNetwork *bnn, const MemoOptions &options)
    : network_(network), bnn_(bnn), options_(options),
      thetaQ_(Q16::fromDouble(options.theta))
{
    nlfm_assert(options.theta >= 0.0, "negative threshold");
    nlfm_assert(options.predictor != PredictorKind::Bnn || bnn != nullptr,
                "BNN predictor requires a binarized mirror network");
    const std::size_t neurons = network.totalNeurons();
    cachedOutput_.assign(neurons, 0.f);
    cachedBnn_.assign(neurons, 0);
    deltaRaw_.assign(neurons, 0);
    valid_.assign(neurons, 0);
    stepIndex_.assign(network.gateInstances().size(), 0);
    stats_ = ReuseStats(network.gateInstances().size());
}

void
MemoEngine::setTheta(double theta)
{
    nlfm_assert(theta >= 0.0, "negative threshold");
    options_.theta = theta;
    thetaQ_ = Q16::fromDouble(theta);
}

void
MemoEngine::beginSequence()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    std::fill(deltaRaw_.begin(), deltaRaw_.end(), 0);
    std::fill(stepIndex_.begin(), stepIndex_.end(), 0);
    if (options_.recordTrace) {
        SequenceTrace trace;
        trace.gates.resize(network_.gateInstances().size());
        traces_.push_back(std::move(trace));
    }
}

void
MemoEngine::resetStats()
{
    stats_.reset();
    traces_.clear();
}

void
MemoEngine::evaluateGate(const nn::GateInstance &instance,
                         const nn::GateParams &params,
                         std::span<const float> x, std::span<const float> h,
                         std::span<float> preact)
{
    nlfm_assert(preact.size() == instance.neurons,
                "preact size mismatch in memo engine");

    std::uint64_t reused = 0;
    if (options_.predictor == PredictorKind::Oracle)
        evaluateOracle(instance, params, x, h, preact, reused);
    else
        evaluateBnn(instance, params, x, h, preact, reused);

    stats_.record(instance.instanceId, reused, instance.neurons);

    if (options_.recordTrace) {
        nlfm_assert(!traces_.empty(),
                    "trace recording without beginSequence");
        auto &gate_trace = traces_.back().gates[instance.instanceId];
        gate_trace.misses.push_back(
            static_cast<std::uint32_t>(instance.neurons - reused));
    }
    ++stepIndex_[instance.instanceId];
}

void
MemoEngine::evaluateOracle(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           std::span<const float> x,
                           std::span<const float> h, std::span<float> preact,
                           std::uint64_t &reused)
{
    // The Oracle knows the true output (Eq. 9): it always computes y_t,
    // then reports how often the cached value could have been reused.
    std::atomic<std::uint64_t> hits{0};
    const double theta = options_.theta;
    parallelFor(instance.neurons, [&](std::size_t begin, std::size_t end) {
        std::uint64_t local_hits = 0;
        for (std::size_t n = begin; n < end; ++n) {
            const std::size_t flat = instance.neuronBase + n;
            const float y_t = nn::evaluateNeuron(params, n, x, h);
            const bool reuse = oracleReuseDecision(
                y_t, cachedOutput_[flat], valid_[flat] != 0, theta);
            if (reuse) {
                // Use the stale value (Eq. 10); the memo entry is kept
                // (Eq. 11).
                preact[n] = cachedOutput_[flat];
                ++local_hits;
            } else {
                preact[n] = y_t;
                cachedOutput_[flat] = y_t;
                valid_[flat] = 1;
            }
        }
        hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
    reused = hits.load(std::memory_order_relaxed);
}

void
MemoEngine::evaluateBnn(const nn::GateInstance &instance,
                        const nn::GateParams &params,
                        std::span<const float> x, std::span<const float> h,
                        std::span<float> preact, std::uint64_t &reused)
{
    nn::BinarizedGate &bgate = bnn_->gate(instance.instanceId);
    // One input binarization per gate per timestep (the FMU's input
    // vector); neuron dot products then read it concurrently.
    bgate.binarizeInput(x, h);

    std::atomic<std::uint64_t> hits{0};
    const bool throttle = options_.throttle;
    const Q16 theta_q = thetaQ_;

    parallelFor(instance.neurons, [&](std::size_t begin, std::size_t end) {
        std::uint64_t local_hits = 0;
        // Panel probe: the whole chunk's BNN outputs in one blocked
        // kernel pass over the contiguous sign matrix (the input stream
        // is re-read from L1 per block of 8 weight rows, not per
        // neuron). thread_local so each pool worker reuses its buffer.
        thread_local std::vector<std::int32_t> yb;
        yb.resize(end - begin);
        bgate.outputs(begin, end - begin, yb);
        for (std::size_t n = begin; n < end; ++n) {
            const std::size_t flat = instance.neuronBase + n;
            const std::int32_t yb_t = yb[n - begin];

            const BnnDecision decision =
                bnnReuseDecision(yb_t, cachedBnn_[flat], valid_[flat] != 0,
                                 deltaRaw_[flat], throttle, theta_q);

            if (decision.reuse) {
                // Eq. 14 top: bypass the DPU, emit the cached output.
                preact[n] = cachedOutput_[flat];
                deltaRaw_[flat] = decision.deltaRaw;
                ++local_hits;
            } else {
                // Eqs. 15-17: full evaluation, refresh the whole entry.
                const float y_t = nn::evaluateNeuron(params, n, x, h);
                preact[n] = y_t;
                cachedOutput_[flat] = y_t;
                cachedBnn_[flat] = yb_t;
                deltaRaw_[flat] = 0;
                valid_[flat] = 1;
            }
        }
        hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
    reused = hits.load(std::memory_order_relaxed);
}

} // namespace nlfm::memo
