#include "nn/brc_cell.hh"

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

namespace
{

/**
 * BRC modulation phase for one row: mod_h = a_t . h_{t-1}, the
 * recurrent input of the candidate gate, with a_t = 1 + phi(@p pre_a +
 * bias). kActLanes neurons per step; step() and stepBatch() both run it.
 */
void
brcModulateRow(const GateParams &mod, const float *pre_a, const float *h,
               float *mod_h)
{
    using namespace lanes;
    const float *b_a = mod.bias.data();
    forEachStep(mod.bias.size(), [&](std::size_t n, auto io) {
        const Vec a_t = add(
            splat(1.f), tanhLanes(add(io.load(pre_a + n), io.load(b_a + n))));
        io.store(mod_h + n, mul(a_t, io.load(h + n)));
    });
}

/**
 * BRC blend phase for one row: h_t = c_t . h_{t-1} + (1 - c_t) . g_t
 * with c_t = sigma(@p pre_c + bias_c) and g_t = phi(@p pre_g + bias_g),
 * updating @p h in place.
 */
void
brcBlendRow(const GateParams &update, const GateParams &candidate,
            const float *pre_c, const float *pre_g, float *h)
{
    using namespace lanes;
    const float *b_c = update.bias.data();
    const float *b_g = candidate.bias.data();
    forEachStep(update.bias.size(), [&](std::size_t n, auto io) {
        const Vec c_t = sigmoidLanes(add(io.load(pre_c + n), io.load(b_c + n)));
        const Vec g_t = tanhLanes(add(io.load(pre_g + n), io.load(b_g + n)));
        io.store(h + n, madd(c_t, io.load(h + n),
                             mul(sub(splat(1.f), c_t), g_t)));
    });
}

} // namespace

BrcCell::BrcCell(std::size_t x_size, std::size_t hidden)
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
    modHidden_.assign(hidden, 0.f);
}

CellState
BrcCell::makeState() const
{
    CellState state;
    state.h.assign(hidden_, 0.f);
    return state;
}

void
BrcCell::step(std::span<const float> x, CellState &state,
              GateEvaluator &eval)
{
    nlfm_assert(x.size() == xSize_, "BRC step: x width mismatch");
    nlfm_assert(state.h.size() == hidden_, "BRC step: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGate(instances_[BrcMod], gates_[BrcMod], x, state.h,
                      preact_[BrcMod]);
    eval.evaluateGate(instances_[BrcUpdate], gates_[BrcUpdate], x, state.h,
                      preact_[BrcUpdate]);

    // a_t modulates the recurrent input of the candidate.
    brcModulateRow(gates_[BrcMod], preact_[BrcMod].data(), state.h.data(),
                   modHidden_.data());

    eval.evaluateGate(instances_[BrcCandidate], gates_[BrcCandidate], x,
                      modHidden_, preact_[BrcCandidate]);

    brcBlendRow(gates_[BrcUpdate], gates_[BrcCandidate],
                preact_[BrcUpdate].data(), preact_[BrcCandidate].data(),
                state.h.data());
}

BatchCellState
BrcCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(3, tensor::Matrix(batch, hidden_));
    state.scratch = tensor::Matrix(batch, hidden_);
    return state;
}

void
BrcCell::stepBatch(const tensor::Matrix &x, std::span<const std::size_t> rows,
                   std::size_t slot_base, BatchCellState &state,
                   BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "BRC stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "BRC stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGateBatch(instances_[BrcMod], gates_[BrcMod], x, state.h,
                           rows, slot_base, state.preact[BrcMod]);
    eval.evaluateGateBatch(instances_[BrcUpdate], gates_[BrcUpdate], x,
                           state.h, rows, slot_base,
                           state.preact[BrcUpdate]);

    // a_t modulates the recurrent input of the candidate.
    for (const std::size_t b : rows)
        brcModulateRow(gates_[BrcMod], state.preact[BrcMod].row(b).data(),
                       state.h.row(b).data(), state.scratch.row(b).data());

    eval.evaluateGateBatch(instances_[BrcCandidate], gates_[BrcCandidate],
                           x, state.scratch, rows, slot_base,
                           state.preact[BrcCandidate]);

    for (const std::size_t b : rows)
        brcBlendRow(gates_[BrcUpdate], gates_[BrcCandidate],
                    state.preact[BrcUpdate].row(b).data(),
                    state.preact[BrcCandidate].row(b).data(),
                    state.h.row(b).data());
}

} // namespace nlfm::nn
