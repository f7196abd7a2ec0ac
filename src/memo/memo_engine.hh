/**
 * @file
 * Neuron-level fuzzy memoization engine (the paper's contribution, §3).
 *
 * MemoEngine is a GateEvaluator that, per neuron and timestep, decides
 * between reusing the cached output y_m and performing the full-precision
 * evaluation, using one of two predictors:
 *
 *  - Oracle (§3.1.1, Fig. 6, Eqs. 9-11): computes the true output y_t and
 *    reuses y_m when |y_t - y_m|/|y_t| <= theta. It spends the
 *    computation it claims to save — it exists to measure the *potential*
 *    of fuzzy memoization (Figs. 1 and 16).
 *
 *  - BNN (§3.2, Fig. 10, Eqs. 12-17): evaluates the binarized mirror
 *    neuron (cheap XNOR/popcount), forms the relative BNN difference
 *    eps_b = |yb_t - yb_m|/|yb_t|, accumulates it over consecutive
 *    reuses into delta_b (the throttling mechanism, Eq. 13), and reuses
 *    y_m while delta_b <= theta. delta_b and the comparison are Q16.16
 *    fixed point only, mirroring the FMU's integer/fixed-point CMP unit.
 */

#ifndef NLFM_MEMO_MEMO_ENGINE_HH
#define NLFM_MEMO_MEMO_ENGINE_HH

#include <memory>

#include "common/fixed_point.hh"
#include "memo/reuse_stats.hh"
#include "nn/binarized.hh"
#include "nn/rnn_network.hh"

namespace nlfm::memo
{

/** Which similarity predictor drives the reuse decision. */
enum class PredictorKind
{
    Oracle, ///< perfect knowledge of the current output (potential study)
    Bnn,    ///< binarized-network predictor (the deployable scheme)
};

/** Engine configuration. */
struct MemoOptions
{
    PredictorKind predictor = PredictorKind::Bnn;
    /** Maximum allowed (accumulated) relative error theta. */
    double theta = 0.05;
    /**
     * Accumulate eps_b across consecutive reuses (Eq. 13). Disabling
     * reproduces the "without throttling" ablation of Fig. 11, where the
     * decision uses the instantaneous eps_b only.
     */
    bool throttle = true;
    /** Record per-step miss counts for the accelerator model. */
    bool recordTrace = false;
};

/**
 * The fuzzy memoization evaluator.
 *
 * Thread-safety: evaluateGate parallelizes over neurons internally;
 * distinct neurons touch disjoint table entries.
 */
class MemoEngine : public nn::GateEvaluator
{
  public:
    /**
     * @param network the full-precision network (must outlive the engine)
     * @param bnn     binarized mirror; required for the BNN predictor,
     *                may be null for the Oracle
     */
    MemoEngine(const nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
               const MemoOptions &options);

    /** Change theta between runs (tuning sweeps). */
    void setTheta(double theta);
    double theta() const { return options_.theta; }

    const MemoOptions &options() const { return options_; }

    /** Cold-start the memo table; called by RnnNetwork::forward. */
    void beginSequence() override;

    void evaluateGate(const nn::GateInstance &instance,
                      const nn::GateParams &params,
                      std::span<const float> x, std::span<const float> h,
                      std::span<float> preact) override;

    /** Cumulative reuse counters across all sequences since resetStats. */
    const ReuseStats &stats() const { return stats_; }
    void resetStats();

    /**
     * Traces of the sequences processed since resetStats (one entry per
     * beginSequence when recordTrace is enabled).
     */
    const std::vector<SequenceTrace> &traces() const { return traces_; }

  private:
    void evaluateOracle(const nn::GateInstance &instance,
                        const nn::GateParams &params,
                        std::span<const float> x, std::span<const float> h,
                        std::span<float> preact, std::uint64_t &reused);
    void evaluateBnn(const nn::GateInstance &instance,
                     const nn::GateParams &params,
                     std::span<const float> x, std::span<const float> h,
                     std::span<float> preact, std::uint64_t &reused);

    const nn::RnnNetwork &network_;
    nn::BinarizedNetwork *bnn_;
    MemoOptions options_;
    Q16 thetaQ_;

    // Memoization table, indexed by flat neuron id (GateInstance::
    // neuronBase + n). Models the FMU's 8 KiB memoization buffer
    // contents: y_m, yb_m, delta_b and a validity bit.
    std::vector<float> cachedOutput_;      ///< y_m
    std::vector<std::int32_t> cachedBnn_;  ///< yb_m
    std::vector<std::int64_t> deltaRaw_;   ///< delta_b (Q16 raw)
    std::vector<std::uint8_t> valid_;

    // Per-gate-instance processing-step counters for trace recording.
    std::vector<std::uint32_t> stepIndex_;

    ReuseStats stats_;
    std::vector<SequenceTrace> traces_;
};

} // namespace nlfm::memo

#endif // NLFM_MEMO_MEMO_ENGINE_HH
