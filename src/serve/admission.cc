#include "serve/admission.hh"

#include <stdexcept>

#include "common/logging.hh"

namespace nlfm::serve
{

namespace
{

/// Prefix of every error message a client sees.
constexpr const char *kServer = "serve::FleetServer";

double
millis(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

Admission::Admission(AdmissionConfig config,
                     std::vector<AdmissionModel> models)
    : config_(std::move(config)), models_(std::move(models))
{
    nlfm_assert(!models_.empty(), "admission with zero models");
    nlfm_assert(config_.slots > 0, "admission over an empty slot pool");
    queues_.reserve(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m)
        queues_.push_back(std::make_unique<RequestQueue>(
            config_.queueCapacity, config_.queuePolicy));
    thetaFloors_ =
        std::make_unique<std::atomic<double>[]>(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m)
        thetaFloors_[m].store(0.0, std::memory_order_relaxed);
    if (config_.sessionCapacity > 0)
        sessions_ = std::make_unique<SessionStore>(
            models_.size(), config_.sessionCapacity);
}

std::optional<SessionState>
Admission::takeSession(std::size_t model, const std::string &id)
{
    if (sessions_ == nullptr)
        return std::nullopt;
    auto state = sessions_->take(model, id);
    if (telemetry_ != nullptr)
        telemetry_->onSessionLookup(model, state.has_value());
    return state;
}

void
Admission::storeSession(std::size_t model, const std::string &id,
                        SessionState &&state)
{
    if (sessions_ == nullptr)
        return;
    const bool evicted = sessions_->put(model, id, std::move(state));
    if (evicted && telemetry_ != nullptr)
        telemetry_->onSessionEviction();
}

std::size_t
Admission::sessionCount(std::size_t model) const
{
    return sessions_ == nullptr ? 0 : sessions_->size(model);
}

std::uint64_t
Admission::sessionEvictions() const
{
    return sessions_ == nullptr ? 0 : sessions_->evictions();
}

void
Admission::attachStats(ServingStats &aggregate,
                       std::vector<ServingStats *> per_model)
{
    nlfm_assert(aggregate_ == nullptr,
                "Admission::attachStats called twice");
    nlfm_assert(per_model.size() == models_.size(),
                "attachStats per-model sink count != model count");
    aggregate_ = &aggregate;
    modelStats_ = std::move(per_model);
}

void
Admission::setThetaFloor(std::size_t model, double floor)
{
    nlfm_assert(model < models_.size(), "model id out of range");
    thetaFloors_[model].store(floor, std::memory_order_relaxed);
    if (telemetry_ != nullptr)
        telemetry_->onThetaFloor(model, floor);
}

double
Admission::thetaFloor(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return thetaFloors_[model].load(std::memory_order_relaxed);
}

double
Admission::mergedTheta(std::size_t model, const Request &request) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    const double floor =
        thetaFloors_[model].load(std::memory_order_relaxed);
    // The base the floor must beat: an explicit per-request theta, or
    // the model's default for the negative "server default" sentinel.
    const double base = request.theta < 0.0
                            ? models_[model].defaultTheta
                            : request.theta;
    // Not binding: hand back the request's own value VERBATIM —
    // preserving the sentinel keeps the no-floor path bit-identical to
    // a controller-free build (exact servers echo 0.0 for sentinels,
    // engines substitute their default).
    return floor > base ? floor : request.theta;
}

std::future<Response>
Admission::submit(std::size_t model, Request request)
{
    nlfm_assert(model < models_.size(), "model id out of range");
    nlfm_assert(aggregate_ != nullptr,
                "serve::Admission: attachStats() must be called "
                "before the first submission");
    const AdmissionModel &info = models_[model];

    QueuedRequest item;
    item.id = nextId_.fetch_add(1);
    item.request = std::move(request);
    item.enqueueTime = Clock::now();
    std::future<Response> future = item.promise.get_future();

    // Validate client data here, on the client's thread: a malformed
    // request fails its own future instead of reaching the driver (an
    // assert there would take down every in-flight request).
    for (const auto &frame : item.request.input) {
        if (frame.size() != info.inputWidth) {
            item.promise.set_exception(std::make_exception_ptr(
                std::invalid_argument(
                    std::string(kServer) + ": request frame width " +
                    std::to_string(frame.size()) + " != model \"" +
                    info.name + "\" input " +
                    std::to_string(info.inputWidth))));
            return future;
        }
    }

    submitted_.fetch_add(1);

    // Predictive shedding, enqueue-time check: even if the queue ahead
    // drains at the full pool rate and this request is then served
    // without a gap, its deadline falls short — no schedule can save
    // it, so fail it before it consumes queue capacity. Skipped once
    // the queue is closed, so a post-stop enqueue fails as "stopped"
    // like every other (a close() racing in between just means the
    // request was genuinely in flight during shutdown).
    if (config_.shedPredicted && !queues_[model]->closed() &&
        item.request.deadlineMs > 0.0 && info.stepCostMs > 0.0) {
        const std::size_t ahead =
            queues_[model]->stepsAhead(deadlineAt(item));
        if (predictedLatencyMs(0.0, ahead, item.request.input.size(),
                               info.stepCostMs) >
            item.request.deadlineMs) {
            shed(std::move(item), model, ShedReason::PredictedMiss);
            return future;
        }
    }

    if (!queues_[model]->push(std::move(item))) {
        // Queue closed by stop(): fail the request explicitly instead
        // of leaving a broken promise. (push only consumes the item on
        // success, so the promise is still ours to fail.)
        item.promise.set_exception(std::make_exception_ptr(
            std::runtime_error(std::string(kServer) + " stopped")));
        finishOne();
        return future;
    }
    if (telemetry_ != nullptr)
        telemetry_->onQueueDepth(model, queues_[model]->size());
    signalWork();
    return future;
}

std::future<Response>
Admission::reject(Request request, std::exception_ptr error)
{
    QueuedRequest item;
    item.id = nextId_.fetch_add(1);
    item.request = std::move(request);
    std::future<Response> future = item.promise.get_future();
    item.promise.set_exception(std::move(error));
    return future;
}

Admission::Pop
Admission::pop(std::size_t model, QueuedRequest &out)
{
    nlfm_assert(model < models_.size(), "model id out of range");
    auto item = queues_[model]->tryPop();
    if (!item)
        return Pop::Empty;
    if (telemetry_ != nullptr)
        telemetry_->onQueueDepth(model, queues_[model]->size());

    const double deadline_ms = item->request.deadlineMs;
    if (deadline_ms > 0.0 &&
        (config_.shedExpired || config_.shedPredicted)) {
        const double elapsed_ms =
            millis(Clock::now() - item->enqueueTime);
        // Expired: the one guaranteed-zero-goodput case. Predictive
        // shedding subsumes it (what expired certainly cannot finish),
        // but the reason stays Expired either way — PredictedMiss is
        // documented as "deadline still ahead", and the counters must
        // not misattribute expired drops to the predictor.
        if (elapsed_ms > deadline_ms) {
            shed(std::move(*item), model, ShedReason::Expired);
            return Pop::Shed;
        }
        // Predicted miss: not expired yet, but even immediate service
        // at the calibrated cost lands past the deadline.
        const double cost_ms = models_[model].stepCostMs;
        if (config_.shedPredicted && cost_ms > 0.0 &&
            predictedLatencyMs(elapsed_ms, 0,
                               item->request.input.size(), cost_ms) >
                deadline_ms) {
            shed(std::move(*item), model, ShedReason::PredictedMiss);
            return Pop::Shed;
        }
    }
    out = std::move(*item);
    return Pop::Admit;
}

void
Admission::complete(std::size_t model, std::size_t slot,
                    SlotState &state, double theta, double reuse)
{
    nlfm_assert(model < models_.size(), "model id out of range");
    const Clock::time_point now = Clock::now();

    Response response;
    response.id = state.id;
    response.steps = state.request.input.size();
    response.theta = theta;
    response.reuseFraction = reuse;
    response.queueMs = millis(state.admitTime - state.enqueueTime);
    response.serviceMs = millis(now - state.admitTime);
    response.latencyMs = millis(now - state.enqueueTime);
    response.deadlineMet =
        state.request.deadlineMs <= 0.0 ||
        response.latencyMs <= state.request.deadlineMs;
    response.warmResumed = state.warmStart;
    response.output = std::move(state.output);

    nlfm_assert(aggregate_ != nullptr,
                "serve::Admission: attachStats() must be called "
                "before completions");
    aggregate_->record(response);
    modelStats_[model]->record(response);
    if (telemetry_ != nullptr) {
        telemetry_->onComplete(model, response);
        // Per-request lifecycle spans, from the SAME timestamps the
        // Response latency math just used, so trace span sums
        // reconcile with ServingStats means. complete() runs on the
        // driver thread, which is the tracer's recording contract.
        if (DriverTracer *tracer = telemetry_->tracer()) {
            TraceSpan span;
            span.slot = static_cast<std::uint32_t>(slot);
            span.model = static_cast<std::uint32_t>(model);
            span.requestId = response.id;
            span.theta = static_cast<float>(response.theta);
            span.warmResumed = response.warmResumed;
            span.phase = TracePhase::Queue;
            span.startNs = tracer->toNs(state.enqueueTime);
            span.durNs = tracer->toNs(state.admitTime) - span.startNs;
            tracer->record(span);
            span.phase = TracePhase::Service;
            span.startNs = tracer->toNs(state.admitTime);
            span.durNs = tracer->toNs(now) - span.startNs;
            tracer->record(span);
        }
    }
    state.promise.set_value(std::move(response));
    finishOne();
}

std::size_t
Admission::queueDepth(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return queues_[model]->size();
}

bool
Admission::drainedAndClosed() const
{
    for (const auto &queue : queues_)
        if (!queue->closed() || queue->size() != 0)
            return false;
    return true;
}

void
Admission::waitWork(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(wakeMutex_);
    wakeCv_.wait_for(lock, timeout,
                     [&] { return workSignals_ != workSeen_; });
    workSeen_ = workSignals_;
}

void
Admission::close()
{
    for (auto &queue : queues_)
        queue->close();
    signalWork();
}

void
Admission::drain()
{
    std::unique_lock<std::mutex> lock(drainMutex_);
    drainCv_.wait(lock, [&] {
        return finished_.load() >= submitted_.load();
    });
}

void
Admission::finishOne()
{
    finished_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(drainMutex_);
    }
    drainCv_.notify_all();
}

void
Admission::signalWork()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        ++workSignals_;
    }
    wakeCv_.notify_all();
}

void
Admission::shed(QueuedRequest &&item, std::size_t model,
                ShedReason reason)
{
    nlfm_assert(aggregate_ != nullptr,
                "serve::Admission: attachStats() must be called "
                "before sheds can be recorded");
    modelStats_[model]->recordShed(reason);
    aggregate_->recordShed(reason);
    if (telemetry_ != nullptr)
        telemetry_->onShed(model, reason);
    item.promise.set_exception(std::make_exception_ptr(ShedError(
        std::string(kServer) +
        (reason == ShedReason::Expired
             ? ": deadline expired before admission (shed)"
             : ": predicted completion past the deadline (shed)"))));
    finishOne();
}

double
Admission::predictedLatencyMs(double elapsed_ms,
                              std::size_t ahead_steps,
                              std::size_t own_steps,
                              double step_cost_ms) const
{
    return elapsed_ms +
           static_cast<double>(ahead_steps) * step_cost_ms /
               static_cast<double>(config_.slots) +
           static_cast<double>(own_steps) * step_cost_ms;
}

} // namespace nlfm::serve
