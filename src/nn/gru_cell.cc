#include "nn/gru_cell.hh"

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

namespace
{

/**
 * GRU reset phase for one row: reset_h = r_t . h_{t-1}, the recurrent
 * input of the candidate gate, with r_t = sigma(@p pre_r + bias).
 * kActLanes neurons per step; step() and stepBatch() both run it.
 */
void
gruResetRow(const GateParams &reset, const float *pre_r, const float *h,
            float *reset_h)
{
    using namespace lanes;
    const float *b_r = reset.bias.data();
    forEachStep(reset.bias.size(), [&](std::size_t n, auto io) {
        const Vec r_t = sigmoidLanes(add(io.load(pre_r + n), io.load(b_r + n)));
        io.store(reset_h + n, mul(r_t, io.load(h + n)));
    });
}

/**
 * GRU blend phase for one row: h_t = (1 - z_t) . h_{t-1} + z_t . g_t
 * with z_t = sigma(@p pre_z + bias_z) and g_t = phi(@p pre_g + bias_g),
 * updating @p h in place.
 */
void
gruBlendRow(const GateParams &update, const GateParams &candidate,
            const float *pre_z, const float *pre_g, float *h)
{
    using namespace lanes;
    const float *b_z = update.bias.data();
    const float *b_g = candidate.bias.data();
    forEachStep(update.bias.size(), [&](std::size_t n, auto io) {
        const Vec z_t = sigmoidLanes(add(io.load(pre_z + n), io.load(b_z + n)));
        const Vec g_t = tanhLanes(add(io.load(pre_g + n), io.load(b_g + n)));
        io.store(h + n, madd(sub(splat(1.f), z_t), io.load(h + n),
                             mul(z_t, g_t)));
    });
}

} // namespace

GruCell::GruCell(std::size_t x_size, std::size_t hidden)
    : RnnCell(x_size, hidden)
{
    gates_.resize(3);
    for (auto &gate : gates_) {
        gate.wx = tensor::Matrix(hidden, x_size);
        gate.wh = tensor::Matrix(hidden, hidden);
        gate.bias.assign(hidden, 0.f);
    }
    for (auto &buffer : preact_)
        buffer.assign(hidden, 0.f);
    resetHidden_.assign(hidden, 0.f);
}

CellState
GruCell::makeState() const
{
    CellState state;
    state.h.assign(hidden_, 0.f);
    return state;
}

void
GruCell::step(std::span<const float> x, CellState &state,
              GateEvaluator &eval)
{
    nlfm_assert(x.size() == xSize_, "GRU step: x width mismatch");
    nlfm_assert(state.h.size() == hidden_, "GRU step: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGate(instances_[GruUpdate], gates_[GruUpdate], x, state.h,
                      preact_[GruUpdate]);
    eval.evaluateGate(instances_[GruReset], gates_[GruReset], x, state.h,
                      preact_[GruReset]);

    // r_t gates the recurrent input of the candidate.
    gruResetRow(gates_[GruReset], preact_[GruReset].data(), state.h.data(),
                resetHidden_.data());

    eval.evaluateGate(instances_[GruCandidate], gates_[GruCandidate], x,
                      resetHidden_, preact_[GruCandidate]);

    gruBlendRow(gates_[GruUpdate], gates_[GruCandidate],
                preact_[GruUpdate].data(), preact_[GruCandidate].data(),
                state.h.data());
}

BatchCellState
GruCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(3, tensor::Matrix(batch, hidden_));
    state.scratch = tensor::Matrix(batch, hidden_);
    return state;
}

void
GruCell::stepBatch(const tensor::Matrix &x, std::span<const std::size_t> rows,
                   std::size_t slot_base, BatchCellState &state,
                   BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "GRU stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "GRU stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGateBatch(instances_[GruUpdate], gates_[GruUpdate], x,
                           state.h, rows, slot_base,
                           state.preact[GruUpdate]);
    eval.evaluateGateBatch(instances_[GruReset], gates_[GruReset], x,
                           state.h, rows, slot_base, state.preact[GruReset]);

    // r_t gates the recurrent input of the candidate.
    for (const std::size_t b : rows)
        gruResetRow(gates_[GruReset], state.preact[GruReset].row(b).data(),
                    state.h.row(b).data(), state.scratch.row(b).data());

    eval.evaluateGateBatch(instances_[GruCandidate], gates_[GruCandidate],
                           x, state.scratch, rows, slot_base,
                           state.preact[GruCandidate]);

    for (const std::size_t b : rows)
        gruBlendRow(gates_[GruUpdate], gates_[GruCandidate],
                    state.preact[GruUpdate].row(b).data(),
                    state.preact[GruCandidate].row(b).data(),
                    state.h.row(b).data());
}

} // namespace nlfm::nn
