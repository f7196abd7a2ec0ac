#include "nn/lstm_cell.hh"

#include <array>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

void
CellState::reset()
{
    std::fill(h.begin(), h.end(), 0.f);
    for (auto &slot : extra)
        std::fill(slot.begin(), slot.end(), 0.f);
}

RnnCell::RnnCell(std::size_t x_size, std::size_t hidden)
    : xSize_(x_size), hidden_(hidden)
{
    nlfm_assert(x_size > 0 && hidden > 0, "empty cell dimensions");
}

GateParams &
RnnCell::gate(std::size_t g)
{
    nlfm_assert(g < gates_.size(), "gate index out of range");
    return gates_[g];
}

const GateParams &
RnnCell::gate(std::size_t g) const
{
    nlfm_assert(g < gates_.size(), "gate index out of range");
    return gates_[g];
}

void
RnnCell::setInstances(std::vector<GateInstance> instances)
{
    nlfm_assert(instances.size() == gates_.size(),
                "one instance per gate required");
    instances_ = std::move(instances);
}

namespace
{

/**
 * E-PUR's MU for one row of LSTM neurons: Eqs. 1-6 after the dot
 * products. @p pre holds each gate's Wx x_t + Wh h_{t-1} (indexed by
 * LstmGate); the cell state @p c and output @p h are updated in place,
 * kActLanes neurons per step. step() and stepBatch() both run it, so a
 * sequence's state evolves bit for bit the same either way.
 */
void
lstmUpdateRow(const std::vector<GateParams> &gates, bool peepholes,
              const std::array<const float *, 4> &pre, float *c, float *h)
{
    using namespace lanes;
    const float *b_i = gates[LstmInput].bias.data();
    const float *b_f = gates[LstmForget].bias.data();
    const float *b_g = gates[LstmUpdate].bias.data();
    const float *b_o = gates[LstmOutput].bias.data();
    const float *p_i = gates[LstmInput].peephole.data();
    const float *p_f = gates[LstmForget].peephole.data();
    const float *p_o = gates[LstmOutput].peephole.data();
    forEachStep(gates[LstmInput].bias.size(), [&](std::size_t n, auto io) {
        const Vec c_prev = io.load(c + n);
        Vec zi = add(io.load(pre[LstmInput] + n), io.load(b_i + n));
        Vec zf = add(io.load(pre[LstmForget] + n), io.load(b_f + n));
        if (peepholes) {
            zi = madd(io.load(p_i + n), c_prev, zi);
            zf = madd(io.load(p_f + n), c_prev, zf);
        }
        const Vec i_t = sigmoidLanes(zi);
        const Vec f_t = sigmoidLanes(zf);
        const Vec g_t =
            tanhLanes(add(io.load(pre[LstmUpdate] + n), io.load(b_g + n)));

        const Vec c_t = madd(f_t, c_prev, mul(i_t, g_t));

        Vec zo = add(io.load(pre[LstmOutput] + n), io.load(b_o + n));
        if (peepholes)
            zo = madd(io.load(p_o + n), c_t, zo);

        io.store(c + n, c_t);
        io.store(h + n, mul(sigmoidLanes(zo), tanhLanes(c_t)));
    });
}

} // namespace

LstmCell::LstmCell(std::size_t x_size, std::size_t hidden, bool peepholes)
    : RnnCell(x_size, hidden), peepholes_(peepholes)
{
    gates_.resize(4);
    for (std::size_t g = 0; g < 4; ++g) {
        auto &gate = gates_[g];
        gate.wx = tensor::Matrix(hidden, x_size);
        gate.wh = tensor::Matrix(hidden, hidden);
        gate.bias.assign(hidden, 0.f);
        // The update gate (Eq. 3) has no peephole; neither does any gate
        // when peepholes are disabled.
        if (peepholes_ && g != LstmUpdate)
            gate.peephole.assign(hidden, 0.f);
    }
    for (auto &buffer : preact_)
        buffer.assign(hidden, 0.f);
}

CellState
LstmCell::makeState() const
{
    CellState state;
    state.h.assign(hidden_, 0.f);
    state.extra.resize(1);
    state.extra[0].assign(hidden_, 0.f);
    return state;
}

void
LstmCell::step(std::span<const float> x, CellState &state,
               GateEvaluator &eval)
{
    nlfm_assert(x.size() == xSize_, "LSTM step: x width mismatch");
    nlfm_assert(state.h.size() == hidden_ && state.extra.size() == 1 &&
                    state.extra[0].size() == hidden_,
                "LSTM step: state shape mismatch");
    nlfm_assert(instances_.size() == 4, "cell instances not assigned");

    // All four gates read (x_t, h_{t-1}); E-PUR evaluates them
    // concurrently on its four CUs (§3.3.1).
    for (std::size_t g = 0; g < 4; ++g)
        eval.evaluateGate(instances_[g], gates_[g], x, state.h, preact_[g]);

    lstmUpdateRow(gates_, peepholes_,
                  {preact_[LstmInput].data(), preact_[LstmForget].data(),
                   preact_[LstmUpdate].data(), preact_[LstmOutput].data()},
                  state.extra[0].data(), state.h.data());
}

BatchCellState
LstmCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.extra.assign(1, tensor::Matrix(batch, hidden_));
    state.preact.assign(4, tensor::Matrix(batch, hidden_));
    return state;
}

void
LstmCell::stepBatch(const tensor::Matrix &x,
                    std::span<const std::size_t> rows,
                    std::size_t slot_base, BatchCellState &state,
                    BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "LSTM stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_ && state.extra.size() == 1 &&
                    state.extra[0].cols() == hidden_,
                "LSTM stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 4, "cell instances not assigned");

    for (std::size_t g = 0; g < 4; ++g)
        eval.evaluateGateBatch(instances_[g], gates_[g], x, state.h, rows,
                               slot_base, state.preact[g]);

    for (const std::size_t b : rows)
        lstmUpdateRow(gates_, peepholes_,
                      {state.preact[LstmInput].row(b).data(),
                       state.preact[LstmForget].row(b).data(),
                       state.preact[LstmUpdate].row(b).data(),
                       state.preact[LstmOutput].row(b).data()},
                      state.extra[0].row(b).data(), state.h.row(b).data());
}

} // namespace nlfm::nn
