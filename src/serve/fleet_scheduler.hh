/// @file
/// Shared-slot-pool scheduler of the multi-model fleet driver.
///
/// The FleetScheduler owns the slot-pool bookkeeping of the serving
/// driver — which slots are free, which request occupies each active
/// slot, and how far into its sequence each slot has stepped — and
/// partitions ONE pool of slots across N resident models dynamically
/// (N = 1 for a single-model serve::Server): any slot can host any
/// model's request, a slot returns to the shared pool the moment its
/// sequence completes, and the next admission may hand it to a
/// different model. There is no static per-model partition — a model
/// with an empty queue consumes zero slots, and a backlogged model can
/// absorb the whole pool when its peers are idle.
///
/// Admission fairness is deficit round robin (DRR) over the models with
/// pending requests: each visit grants a model its weight as credit, one
/// admission costs one credit, and the cursor stays on a model while its
/// credit lasts. Consequences, pinned by tests/fleet_test.cc:
///
///  - with every model backlogged, admissions are granted in proportion
///    to the registered weights (weight 2 admits twice as often as
///    weight 1);
///  - no backlogged model starves: every full cursor round adds weight
///    to its credit, so it admits within ceil(1/weight) rounds;
///  - an idle model's credit resets, so bursty traffic cannot hoard
///    admissions it did not contend for.
///
/// By default one admission costs one credit, so weights buy admission
/// COUNT — a heavy model at weight 1 still dominates tick time once
/// admitted. With cost charging enabled (setCostCharging; wired to
/// FleetOptions::costAwareAdmission), admissions are charged their
/// calibrated service cost instead, making weights proportional to
/// machine time; the flat-credit default stays bit-identical to PR 4.
///
/// Admission picks the lowest-numbered free slot, and all choices are
/// deterministic given the sequence of (pickModel, admit, release)
/// calls. Not thread-safe: driven only by the fleet server's driver
/// loop.

#ifndef NLFM_SERVE_FLEET_SCHEDULER_HH
#define NLFM_SERVE_FLEET_SCHEDULER_HH

#include <span>
#include <vector>

#include "serve/request_queue.hh"

namespace nlfm::serve
{

/// Occupancy record of one active slot.
struct SlotState
{
    bool active = false;
    std::size_t model = 0;         ///< owning model
    std::uint64_t id = 0;          ///< request id
    Request request;               ///< the admitted request
    std::promise<Response> promise;
    std::size_t step = 0;          ///< next input step to process
    /// Session warm-start restored into this slot at admission (flows
    /// into Response::warmResumed at completion).
    bool warmStart = false;
    nn::Sequence output;           ///< per-step outputs collected so far
    Clock::time_point enqueueTime{};
    Clock::time_point admitTime{};
};

/// Slot pool shared by N models, with weighted-fair admission.
class FleetScheduler
{
  public:
    /// @param slots   shared pool width (> 0)
    /// @param weights per-model admission weights (all > 0); size is
    ///                the model count
    FleetScheduler(std::size_t slots, std::span<const double> weights);

    std::size_t slotCount() const { return slots_.size(); }
    std::size_t modelCount() const { return weights_.size(); }
    std::size_t activeCount() const { return activeCount_; }
    bool hasFree() const { return !freeSlots_.empty(); }

    /// Switch admissions to cost charging (FleetOptions::
    /// costAwareAdmission): pickModel's quantum grant stays the same,
    /// but a pick no longer spends a flat 1 credit — the caller charges
    /// the admission's actual calibrated service cost via charge()
    /// after popping the request. Credit may go negative (surplus round
    /// robin: the cost of a request is only known once it is popped),
    /// so a model that admitted an expensive request sits out rounds
    /// until its per-round quantum repays the debt — weights buy
    /// machine time instead of admission count. Enable before the
    /// first pickModel call.
    void setCostCharging(bool on) { costCharging_ = on; }
    bool costCharging() const { return costCharging_; }

    /// Pick the model whose queue should admit next, given per-model
    /// pending-request counts (index = model id). Returns -1 when every
    /// queue is empty. Each successful pick spends one admission credit
    /// (default mode) or must be followed by charge() with the popped
    /// request's cost (cost-charging mode); callers then admit() for
    /// that model.
    int pickModel(std::span<const std::size_t> pending);

    /// Charge one admission's service cost (cost-charging mode only).
    /// Sheds are free — a shed request consumed no machine time, so
    /// callers simply skip the charge.
    void charge(std::size_t model, double cost);

    /// Admit one request for @p model into the lowest-numbered free
    /// slot. Requires hasFree(). Returns the slot index.
    std::size_t admit(std::size_t model, QueuedRequest &&item);

    /// Release a completed slot back to the shared pool.
    void release(std::size_t slot);

    /// Active slot indices of one model, ascending — that model's panel
    /// row set for the next tick. Valid until the next admit/release.
    std::span<const std::size_t> activeRows(std::size_t model) const;

    SlotState &slot(std::size_t index);
    const SlotState &slot(std::size_t index) const;

  private:
    std::vector<SlotState> slots_;
    /// Free slot indices, sorted descending (lowest pops from the back).
    std::vector<std::size_t> freeSlots_;
    /// Per-model active slot indices, each ascending.
    std::vector<std::vector<std::size_t>> activeRows_;
    std::size_t activeCount_ = 0;

    // DRR state.
    std::vector<double> weights_;
    std::vector<double> deficit_;
    std::size_t cursor_ = 0;
    /// Whether the model under the cursor already received its quantum
    /// this visit (credit is granted once per visit, not per pick).
    bool charged_ = false;
    bool costCharging_ = false;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_FLEET_SCHEDULER_HH
