#include "nn/rate_rnn_cell.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

namespace
{

/**
 * Rate-RNN leaky integration for one row: h_t = (1 - a) . h_{t-1} +
 * a . phi(@p pre + bias), with the per-neuron leak a in the gate's
 * peephole slot, updating @p h in place. kActLanes neurons per step;
 * step() and stepBatch() both run it.
 */
void
rateUpdateRow(const GateParams &drive, const float *pre, float *h)
{
    using namespace lanes;
    const float *bias = drive.bias.data();
    const float *leak = drive.peephole.data();
    forEachStep(drive.bias.size(), [&](std::size_t n, auto io) {
        const Vec d_t = tanhLanes(add(io.load(pre + n), io.load(bias + n)));
        const Vec a = io.load(leak + n);
        io.store(h + n, madd(sub(splat(1.f), a), io.load(h + n), mul(a, d_t)));
    });
}

} // namespace

RateRnnCell::RateRnnCell(std::size_t x_size, std::size_t hidden)
    : RnnCell(x_size, hidden)
{
    gates_.resize(1);
    auto &gate = gates_[RateDrive];
    gate.wx = tensor::Matrix(hidden, x_size);
    gate.wh = tensor::Matrix(hidden, hidden);
    gate.bias.assign(hidden, 0.f);
    // Per-neuron leak a = dt/tau on a geometric grid 1.0 -> 0.1: the
    // fastest neuron integrates instantly, the slowest averages over
    // ~10 steps. Stored in the peephole slot (GateAux::Leak).
    gate.peephole.assign(hidden, 1.f);
    if (hidden > 1) {
        const double ratio = std::pow(
            0.1, 1.0 / static_cast<double>(hidden - 1));
        double a = 1.0;
        for (std::size_t n = 0; n < hidden; ++n) {
            gate.peephole[n] = static_cast<float>(a);
            a *= ratio;
        }
    }
    preact_.assign(hidden, 0.f);
}

CellState
RateRnnCell::makeState() const
{
    CellState state;
    state.h.assign(hidden_, 0.f);
    return state;
}

void
RateRnnCell::step(std::span<const float> x, CellState &state,
                  GateEvaluator &eval)
{
    nlfm_assert(x.size() == xSize_, "rate-RNN step: x width mismatch");
    nlfm_assert(state.h.size() == hidden_,
                "rate-RNN step: state shape mismatch");
    nlfm_assert(instances_.size() == 1, "cell instances not assigned");

    const auto &gate = gates_[RateDrive];
    eval.evaluateGate(instances_[RateDrive], gate, x, state.h, preact_);

    rateUpdateRow(gate, preact_.data(), state.h.data());
}

BatchCellState
RateRnnCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(1, tensor::Matrix(batch, hidden_));
    return state;
}

void
RateRnnCell::stepBatch(const tensor::Matrix &x,
                       std::span<const std::size_t> rows,
                       std::size_t slot_base, BatchCellState &state,
                       BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "rate-RNN stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "rate-RNN stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 1, "cell instances not assigned");

    const auto &gate = gates_[RateDrive];
    eval.evaluateGateBatch(instances_[RateDrive], gate, x, state.h, rows,
                           slot_base, state.preact[RateDrive]);

    for (const std::size_t b : rows)
        rateUpdateRow(gate, state.preact[RateDrive].row(b).data(),
                      state.h.row(b).data());
}

} // namespace nlfm::nn
