#include "serve/theta_controller.hh"

#include <stdexcept>

namespace nlfm::serve
{

const char *
thetaDecisionReasonName(ThetaDecisionReason reason)
{
    switch (reason) {
    case ThetaDecisionReason::Shed:
        return "shed";
    case ThetaDecisionReason::DeadlineMiss:
        return "deadline-miss";
    case ThetaDecisionReason::Occupancy:
        return "occupancy";
    case ThetaDecisionReason::Slack:
        return "slack";
    }
    return "unknown";
}

ThetaController::ThetaController(const ThetaAutopilotOptions &options,
                                 double base_theta)
    : options_(options)
{
    if (!options_.enabled)
        throw std::invalid_argument(
            "ThetaController constructed with autopilot disabled");
    if (options_.curve.empty())
        throw std::invalid_argument(
            "theta autopilot needs an offline accuracy curve "
            "(memo::TuneCurve::fromPoints of a sweep)");
    if (options_.lowerOccupancy > options_.raiseOccupancy)
        throw std::invalid_argument(
            "theta autopilot: lowerOccupancy above raiseOccupancy "
            "(inverted hysteresis band would chatter)");
    for (const double theta :
         options_.curve.ladderForLoss(options_.maxAccuracyLoss))
        if (theta > base_theta)
            ladder_.push_back(theta);
    if (ladder_.empty())
        throw std::invalid_argument(
            "theta autopilot: no curve point above the default theta "
            "qualifies under maxAccuracyLoss — the controller would "
            "have nothing to trade");
}

bool
ThetaController::saturated() const
{
    return level_ == ladder_.size();
}

bool
ThetaController::tick(const ThetaSignals &signals)
{
    const Clock::time_point now = Clock::now();
    if (decided_) {
        const double since_ms =
            std::chrono::duration<double, std::milli>(now -
                                                      lastDecision_)
                .count();
        if (since_ms < options_.controlIntervalMs)
            return false;
    }

    // Differenced event counters: what went wrong since the last
    // decision. Before the first decision the baseline is zero, so
    // pre-existing sheds count as pressure — which is correct for a
    // controller attached to an already-struggling server. A counter
    // BELOW its baseline means the stats window was reset mid-flight
    // (Server::resetStats) — rebaseline from zero instead of letting
    // the unsigned difference wrap to ~2^64 and slam the floor to max.
    const std::uint64_t sheds = signals.shed >= lastSignals_.shed
                                    ? signals.shed - lastSignals_.shed
                                    : signals.shed;
    const std::uint64_t misses =
        signals.deadlineMissed >= lastSignals_.deadlineMissed
            ? signals.deadlineMissed - lastSignals_.deadlineMissed
            : signals.deadlineMissed;
    lastSignals_ = signals;
    lastDecision_ = now;
    decided_ = true;
    ++decisionCount_;

    const bool pressure =
        sheds > 0 || misses > 0 ||
        (signals.occupancy >= options_.raiseOccupancy &&
         signals.queueDepth > 0);
    const bool slack = sheds == 0 && misses == 0 &&
                       signals.queueDepth == 0 &&
                       signals.occupancy <= options_.lowerOccupancy;

    std::size_t level = level_;
    if (pressure && level < ladder_.size())
        ++level;
    else if (slack && level > 0)
        --level;
    if (level == level_)
        return false;

    const double floor_before = level_ == 0 ? 0.0 : ladder_[level_ - 1];
    level_ = level;
    const double floor = level_ == 0 ? 0.0 : ladder_[level_ - 1];
    floor_.store(floor, std::memory_order_relaxed);
    if (floor > maxFloor_.load(std::memory_order_relaxed))
        maxFloor_.store(floor, std::memory_order_relaxed);

    if (options_.auditCapacity > 0) {
        ThetaDecision decision;
        decision.tick = decisionCount_;
        decision.signals = signals;
        decision.floorBefore = floor_before;
        decision.floorAfter = floor;
        // Dominant pressure in the raise condition's own order; a
        // lowering move can only be slack.
        decision.reason = floor > floor_before
                              ? (sheds > 0 ? ThetaDecisionReason::Shed
                                 : misses > 0
                                     ? ThetaDecisionReason::DeadlineMiss
                                     : ThetaDecisionReason::Occupancy)
                              : ThetaDecisionReason::Slack;
        std::lock_guard<std::mutex> lock(auditMutex_);
        if (auditRing_.size() < options_.auditCapacity) {
            auditRing_.push_back(decision);
        } else {
            auditRing_[auditHead_] = decision;
        }
        auditHead_ = (auditHead_ + 1) % options_.auditCapacity;
        ++auditRecorded_;
    }
    return true;
}

std::vector<ThetaDecision>
ThetaController::audit() const
{
    std::lock_guard<std::mutex> lock(auditMutex_);
    std::vector<ThetaDecision> out;
    out.reserve(auditRing_.size());
    // Oldest retained entry: auditHead_ once the ring wrapped (the
    // ring is full exactly then), 0 before.
    const std::size_t first =
        auditRing_.size() < options_.auditCapacity ? 0 : auditHead_;
    for (std::size_t i = 0; i < auditRing_.size(); ++i)
        out.push_back(auditRing_[(first + i) % auditRing_.size()]);
    return out;
}

std::uint64_t
ThetaController::auditRecorded() const
{
    std::lock_guard<std::mutex> lock(auditMutex_);
    return auditRecorded_;
}

} // namespace nlfm::serve
