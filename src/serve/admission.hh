/// @file
/// Deadline-aware admission control of the FleetServer (and so of the
/// single-model Server, a one-model fleet).
///
/// Admission owns the work between a client's enqueue() and the
/// driver's admit-into-slot: validate the request on the client's
/// thread, assign it an id, queue it with backpressure, wake an idle
/// driver, and — on the driver side — pop requests in policy order,
/// shedding the ones that cannot produce goodput, then
/// assemble/record/deliver each finished slot's Response. All of it is
/// keyed by model id.
///
/// Policies (all opt-in; the defaults reproduce the PR 4 FIFO
/// behavior, so fleet/server outputs and stats are unchanged unless a
/// policy is switched on):
///
///  - **EDF queue order** (QueuePolicy::Edf): pop the
///    earliest-absolute-deadline request instead of the oldest.
///    Deadline-free requests sort last and stay FIFO among themselves
///    (they can starve behind a sustained deadlined stream — that is
///    the policy).
///  - **Expired shedding** (shedExpired): fail requests whose deadline
///    passed while they queued (ShedReason::Expired), instead of
///    burning a slot on guaranteed-zero-goodput work.
///  - **Predictive shedding** (shedPredicted): fail requests that
///    cannot meet their deadline even under an optimistic completion
///    estimate (ShedReason::PredictedMiss). The estimate is scaled by
///    the calibrated per-step service cost (AdmissionModel::stepCostMs;
///    the saturation probe in bench_multi_model_load measures it):
///
///        predicted = elapsed                    queueing so far
///                  + aheadSteps * cost / slots  queue ahead draining
///                                               at the full pool rate
///                  + ownSteps * cost            own service
///
///    checked at enqueue (aheadSteps = steps the pop policy would
///    serve first) and again at admission (aheadSteps = 0, elapsed
///    measured). Every term is optimistic — zero admission gaps, the
///    whole pool on the queue ahead, immediate service — so a request
///    the calibration says could still finish in time is never shed.
///
/// Theta floors: the serving tier's autopilot (serve::ThetaController)
/// publishes a per-model effective theta floor here, and the merge with
/// each request's own theta happens in exactly one place —
/// mergedTheta(). A floor of 0 (the default, and the only value when
/// the autopilot is off) never binds, so requests pass through with
/// their theta untouched, sentinel included.
///
/// Stats binding: the stats sinks are attached AFTER construction
/// (attachStats), not taken by the constructor. The PR 5 shape took
/// references into the owning server's ServingStats members, which
/// silently required Admission to be declared after them — a reorder
/// compiled fine and read uninitialized memory. Now construction is
/// order-independent and the first submit()/pop()/complete() without
/// attached stats panics loudly instead.
///
/// Threading: submit()/reject() run on client threads; pop()/complete()
/// only on the driver; waitWork() parks the driver without the lost-
/// wakeup window a bare condition_variable::wait_for has (a submission
/// landing between the driver's last queue check and waitWork() returns
/// immediately instead of timing out).

#ifndef NLFM_SERVE_ADMISSION_HH
#define NLFM_SERVE_ADMISSION_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "serve/request_queue.hh"
#include "serve/fleet_scheduler.hh"
#include "serve/session_store.hh"
#include "serve/stats.hh"
#include "serve/telemetry.hh"

namespace nlfm::serve
{

/// The theta a request is served at on an exact (non-memoized) model,
/// for accounting: an explicit request theta is echoed so per-theta
/// breakdowns of mixed memoized/exact fleets stay meaningful; the
/// "server default" sentinel (negative) reports 0.0 — exact evaluation.
inline double
servedTheta(const Request &request)
{
    return request.theta < 0.0 ? 0.0 : request.theta;
}

/// Admission-wide policy knobs (built from FleetOptions).
struct AdmissionConfig
{
    /// Per-model queue capacity (enqueue backpressure bound).
    std::size_t queueCapacity = 64;
    /// Slot-pool width — the drain-rate denominator of the predictive
    /// estimate.
    std::size_t slots = 8;
    QueuePolicy queuePolicy = QueuePolicy::Fifo;
    bool shedExpired = false;
    bool shedPredicted = false;
    /// Max warm-start sessions kept PER MODEL
    /// (FleetOptions::sessionCapacity); 0 disables the session store
    /// entirely (session-tagged requests are served cold).
    std::size_t sessionCapacity = 0;
};

/// One model's admission-side description.
struct AdmissionModel
{
    /// Registry name; labels width-mismatch errors.
    std::string name;
    std::size_t inputWidth = 0;
    /// Calibrated per-step service cost in milliseconds (saturated);
    /// scales the predictive-shedding estimate. 0 = uncalibrated
    /// (asserted > 0 by the servers when shedPredicted is on).
    double stepCostMs = 0.0;
    /// The model's default serving theta (engine default; 0 for exact
    /// models) — the base the theta-floor merge compares against for
    /// requests that carry the "server default" sentinel.
    double defaultTheta = 0.0;
};

/// Shared admission front end: per-model bounded queues plus the
/// validation / shedding / completion / drain bookkeeping.
class Admission
{
  public:
    /// Outcome of one driver-side pop attempt.
    enum class Pop
    {
        Empty, ///< nothing queued at that model
        Shed,  ///< popped one request and shed it (future failed,
               ///< shed counted); callers decide what it costs the
               ///< scheduler before trying again
        Admit, ///< popped one request to admit
    };

    /// Constructs without stats sinks: call attachStats() before the
    /// first submission (panics otherwise), so the owning server's
    /// member order cannot matter.
    Admission(AdmissionConfig config,
              std::vector<AdmissionModel> models);

    /// Late-bind the accounting sinks: the aggregate plus one sink per
    /// model. Must be called exactly once, before any submission.
    void attachStats(ServingStats &aggregate,
                     std::vector<ServingStats *> per_model);

    /// Late-bind the telemetry bundle (nullptr = telemetry off, the
    /// default). When attached, the admission hooks — the single choke
    /// points where ServingStats is updated — also publish to the
    /// registry, so exposition counters reconcile exactly with
    /// StatsCounters, and complete() records per-request queue/service
    /// trace spans from the same timestamps as the Response math.
    void attachTelemetry(Telemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

    std::size_t modelCount() const { return models_.size(); }

    // --------------------------------------------------- theta floor

    /// Publish the autopilot's effective floor for @p model (0 = no
    /// floor). Driver thread; readers may be any thread.
    void setThetaFloor(std::size_t model, double floor);

    /// The floor currently applied at @p model.
    double thetaFloor(std::size_t model) const;

    /// THE per-request vs controller-floor merge (the only place it
    /// happens): returns the theta @p request should be admitted at —
    /// the request's own value (sentinel included) when the floor does
    /// not exceed it (or the model default, for sentinel requests),
    /// otherwise the floor. Never lowers what the request asked for.
    double mergedTheta(std::size_t model, const Request &request) const;

    // ---------------------------------------------------- client side

    /// Validate, id, and queue one request for @p model (in range —
    /// callers route). Blocks while that model's queue is full. The
    /// future fails with std::invalid_argument on malformed input,
    /// ShedError when a shedding policy rejects it, and
    /// std::runtime_error after close().
    std::future<Response> submit(std::size_t model, Request request);

    /// Fail a request that cannot be routed at all (unknown model
    /// name, id out of range): the returned future carries @p error.
    /// Draws an id like every submission, so rejection records are
    /// distinguishable from request 0's.
    std::future<Response> reject(Request request,
                                 std::exception_ptr error);

    // ---------------------------------------------------- driver side

    /// Pop at most one request of @p model in policy order, applying
    /// the shedding policies to the popped candidate.
    Pop pop(std::size_t model, QueuedRequest &out);

    /// Assemble, record (aggregate + per-model), and deliver the
    /// Response of the finished slot @p slot, then count it toward
    /// drain(). @p slot labels telemetry (trace spans); the response
    /// itself is built from @p state alone.
    void complete(std::size_t model, std::size_t slot, SlotState &state,
                  double theta, double reuse);

    // -------------------------------------------- session warm-start

    /// True when a session store exists (sessionCapacity > 0): the
    /// servers only then route session-tagged requests through it.
    bool sessionsEnabled() const { return sessions_ != nullptr; }

    /// Check a session's state out of the store for the request being
    /// admitted (nullopt = cold start: unknown, evicted, or currently
    /// checked out by an in-flight request). Driver thread.
    std::optional<SessionState> takeSession(std::size_t model,
                                            const std::string &id);

    /// Store the completing slot's snapshot back under its session id
    /// (LRU-evicting the model's oldest session when full). Driver
    /// thread.
    void storeSession(std::size_t model, const std::string &id,
                      SessionState &&state);

    /// Live sessions stored for @p model (0 when sessions are
    /// disabled). Any thread.
    std::size_t sessionCount(std::size_t model) const;

    /// Sessions evicted by capacity pressure (0 when disabled). Any
    /// thread.
    std::uint64_t sessionEvictions() const;

    /// Requests queued (not yet admitted) at one model.
    std::size_t queueDepth(std::size_t model) const;

    /// True once every queue is closed and empty (driver exit test).
    bool drainedAndClosed() const;

    /// Park the driver until new work may exist or @p timeout elapses.
    /// Lost-wakeup safe: a submission since the previous waitWork()
    /// returns immediately.
    void waitWork(std::chrono::milliseconds timeout);

    // ------------------------------------------------------ lifecycle

    /// Close every queue: pending and future submissions fail, pops
    /// drain what remains. Idempotent.
    void close();

    /// Block until every submission was completed, shed, or rejected
    /// post-queue.
    void drain();

  private:
    void finishOne();
    void signalWork();
    void shed(QueuedRequest &&item, std::size_t model,
              ShedReason reason);
    /// The optimistic completion estimate (header comment).
    double predictedLatencyMs(double elapsed_ms, std::size_t ahead_steps,
                              std::size_t own_steps,
                              double step_cost_ms) const;

    AdmissionConfig config_;
    std::vector<AdmissionModel> models_;
    /// Stats sinks, late-bound by attachStats (see the file comment).
    ServingStats *aggregate_ = nullptr;
    std::vector<ServingStats *> modelStats_;
    /// Telemetry bundle, late-bound by attachTelemetry; null = off.
    Telemetry *telemetry_ = nullptr;
    std::vector<std::unique_ptr<RequestQueue>> queues_;
    /// Per-model autopilot floors (0 = none). Array of atomics rather
    /// than vector: atomics are not movable.
    std::unique_ptr<std::atomic<double>[]> thetaFloors_;
    /// Warm-start session store; null when sessionCapacity == 0.
    std::unique_ptr<SessionStore> sessions_;

    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> finished_{0};
    std::mutex drainMutex_;
    std::condition_variable drainCv_;

    /// Wake channel for the idle driver. workSignals_ advances under
    /// wakeMutex_ on every submission/close; waitWork() waits until it
    /// differs from the count it last consumed, which is the predicate
    /// a bare notify_all() lacked (the PR 4 fleet lost-wakeup bug).
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::uint64_t workSignals_ = 0;
    std::uint64_t workSeen_ = 0;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_ADMISSION_HH
