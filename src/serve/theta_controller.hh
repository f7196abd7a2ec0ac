/// @file
/// Closed-loop theta autopilot: SLO pressure in, theta floor out.
///
/// The paper tunes theta offline against a target accuracy loss and
/// then serves at that fixed value. Under load that is an all-or-
/// nothing dial: the serving tier runs at full quality until the queue
/// backs up, and the next lever is predictive shedding — failing
/// requests outright. The ThetaController closes the loop in between:
/// it treats the reuse savings of higher theta as an elastic capacity
/// reserve, raising an *effective theta floor* on incoming requests as
/// pressure rises (slot occupancy, queue depth, sheds, deadline misses
/// — all signals the stack already tracks) and lowering it as load
/// drains, so overload degrades output quality gracefully *before*
/// requests start getting shed.
///
/// The floor is bounded by an offline accuracy curve (memo::TuneCurve,
/// built from sweepThresholds output on the tune split): the controller
/// steps through the curve's qualifying ladder under the caller's
/// max-accuracy-loss budget and never schedules a theta the calibration
/// measured as exceeding it. Control is a bounded ladder walk with
/// hysteresis, not a continuous law: one rung up per control interval
/// under pressure, one rung down per interval of confirmed slack, and
/// a dead band between the raise and lower conditions so the floor does
/// not chatter at a load edge.
///
/// Threading: tick() runs only on the serving driver thread (it is the
/// driver that owns the pressure signals). floor() is an atomic read,
/// safe from any thread — serve::Admission reads it through its
/// per-model floor slot, clients through Server::thetaFloor().
///
/// The controller never *lowers* a request's own theta: the merge with
/// per-request values happens in exactly one place,
/// serve::Admission::mergedTheta (floor binds only when it exceeds what
/// the request asked for — or the model default, for requests that ask
/// for nothing).

#ifndef NLFM_SERVE_THETA_CONTROLLER_HH
#define NLFM_SERVE_THETA_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "memo/threshold_tuner.hh"
#include "serve/request.hh"

namespace nlfm::serve
{

/// Autopilot configuration (ServerOptions::autopilot, per-model
/// ModelSpec::autopilot). Defaults keep the controller off; an enabled
/// controller requires a non-empty curve with at least one ladder rung
/// under maxAccuracyLoss (asserted by the servers at construction).
struct ThetaAutopilotOptions
{
    /// Master switch. Off = the floor is pinned at 0 and serving
    /// output is bit-identical to a controller-free build.
    bool enabled = false;

    /// Offline accuracy curve from memo::sweepThresholds /
    /// selectThreshold output (memo::TuneCurve::fromPoints).
    memo::TuneCurve curve;

    /// Accuracy-loss budget, in the curve's own loss units. The floor
    /// never exceeds curve.maxThetaForLoss(maxAccuracyLoss).
    double maxAccuracyLoss = 0.0;

    /// Minimum wall time between control decisions. Each driver-loop
    /// iteration offers a tick; the controller acts on at most one per
    /// interval, so the ladder moves at a bounded rate regardless of
    /// tick frequency.
    double controlIntervalMs = 10.0;

    /// Raise condition (one rung up): any shed or deadline miss since
    /// the last decision, OR occupancy >= raiseOccupancy with a
    /// non-empty queue.
    double raiseOccupancy = 0.95;

    /// Lower condition (one rung down): no sheds, no misses, queue
    /// empty, and occupancy <= lowerOccupancy. The gap up to
    /// raiseOccupancy is the hysteresis dead band.
    double lowerOccupancy = 0.60;

    /// Bounded audit-trail capacity: the controller retains the most
    /// recent auditCapacity floor decisions (ThetaDecision) so a
    /// burst's autopilot behavior is replayable after the fact
    /// (FleetStatsSnapshot::report renders them). 0 disables the
    /// trail.
    std::size_t auditCapacity = 64;
};

/// Pressure snapshot the driver hands to tick(). Counters are
/// cumulative (ServingStats::counters); the controller differences
/// them internally.
struct ThetaSignals
{
    double occupancy = 0.0;       ///< active slots / pool width
    std::size_t queueDepth = 0;   ///< requests queued, this model
    std::uint64_t shed = 0;       ///< cumulative sheds (all reasons)
    std::uint64_t deadlineMissed = 0; ///< cumulative completed-but-late
};

/// What tipped a floor decision — the dominant pressure (sheds beat
/// misses beat occupancy, matching the raise condition's order) or the
/// slack that lowered it.
enum class ThetaDecisionReason : std::uint8_t
{
    Shed,         ///< raised: sheds since the last decision
    DeadlineMiss, ///< raised: completed-but-late since the last decision
    Occupancy,    ///< raised: occupancy + queue depth over thresholds
    Slack,        ///< lowered: confirmed slack interval
};

/// Stable lower-case name of @p reason (reports, trace args).
const char *thetaDecisionReasonName(ThetaDecisionReason reason);

/// One audited floor move: everything needed to replay why the
/// autopilot acted — the decision ordinal, the signals it saw, the
/// floor before/after, and the dominant reason.
struct ThetaDecision
{
    /// Ordinal among ACCEPTED decisions (ticks past the rate limiter),
    /// starting at 1 — a logical clock that survives wall-time noise.
    std::uint64_t tick = 0;
    ThetaSignals signals;
    double floorBefore = 0.0;
    double floorAfter = 0.0;
    ThetaDecisionReason reason = ThetaDecisionReason::Slack;
};

/// One model's theta autopilot. See the file comment for the control
/// law; construction fails loudly (std::invalid_argument) when enabled
/// without a usable ladder.
class ThetaController
{
  public:
    /// @param options  validated as described above
    /// @param base_theta the model's default serving theta; rungs at or
    ///                   below it are dropped from the ladder (a floor
    ///                   under the default never binds)
    ThetaController(const ThetaAutopilotOptions &options,
                    double base_theta);

    /// Current effective floor: 0 when off or at the bottom rung-less
    /// level, otherwise the active ladder theta. Atomic; any thread.
    double floor() const
    {
        return floor_.load(std::memory_order_relaxed);
    }

    /// Highest floor reached since construction. Atomic; any thread.
    double maxFloorSeen() const
    {
        return maxFloor_.load(std::memory_order_relaxed);
    }

    /// True when the floor sits on the ladder's top rung — the
    /// controller has no quality left to trade and the next pressure
    /// escalation is the shedding policies' to absorb.
    bool saturated() const;

    /// Number of rungs above "off" (== ladder size).
    std::size_t rungs() const { return ladder_.size(); }

    /// Offer one control decision; returns true when the floor moved.
    /// Rate-limited internally to one decision per controlIntervalMs.
    /// Driver thread only.
    bool tick(const ThetaSignals &signals);

    /// The retained audit trail, oldest first (at most
    /// ThetaAutopilotOptions::auditCapacity entries — older decisions
    /// roll off). Any thread (mutex-guarded copy).
    std::vector<ThetaDecision> audit() const;

    /// Floor decisions recorded since construction, including ones
    /// that rolled off the bounded trail. Any thread.
    std::uint64_t auditRecorded() const;

  private:
    ThetaAutopilotOptions options_;
    /// Ascending thetas above the base; level 0 = floor off,
    /// level k >= 1 = ladder_[k-1].
    std::vector<double> ladder_;
    std::size_t level_ = 0;
    Clock::time_point lastDecision_{};
    bool decided_ = false; ///< lastDecision_ valid
    ThetaSignals lastSignals_{};
    std::uint64_t decisionCount_ = 0; ///< accepted ticks (audit clock)
    std::atomic<double> floor_{0.0};
    std::atomic<double> maxFloor_{0.0};

    /// Bounded decision ring (file comment: replayable bursts). The
    /// driver writes, reports read — a mutex, not the hot path's
    /// atomics, because entries are multi-word.
    mutable std::mutex auditMutex_;
    std::vector<ThetaDecision> auditRing_;
    std::size_t auditHead_ = 0;
    std::uint64_t auditRecorded_ = 0;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_THETA_CONTROLLER_HH
