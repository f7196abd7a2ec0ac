/// @file
/// Driver-tick tracer: fixed-capacity ring of timestamped phase spans.
///
/// The serving driver makes all its decisions between two wall-clock
/// reads that nobody else sees: which tick admitted a request, how long
/// staging vs stepping took, how much of a step went to the BNN probe
/// vs the decide loop vs the miss FMA panels. The DriverTracer records
/// those as spans — {start, duration, phase, slot, model, request} —
/// into a preallocated ring buffer, so a loaded server can run with
/// tracing on at a fixed memory cost and zero allocation on the hot
/// path; when the ring wraps, the oldest spans are overwritten and
/// counted as dropped (never silently).
///
/// Threading contract: record() runs ONLY on the serving driver thread
/// (the thread that owns the phases being measured), which is what
/// makes the ring lock-free by construction. Per-request lifecycle
/// spans (queue/service) are recorded at completion — also driver-side
/// — from the same SlotState timestamps the Response latency math
/// uses, so span sums reconcile exactly with ServingStats means.
/// spans()/chromeTraceJson() are for AFTER the driver stopped (or from
/// the driver itself); reading mid-flight from another thread is a data
/// race and is not supported.
///
/// Export format: Chrome trace-event JSON ("traceEvents" with ph:"X"
/// duration events, microsecond timestamps), loadable directly in
/// Perfetto (ui.perfetto.dev) or chrome://tracing. Driver phases render
/// on one "driver" track; per-request lifecycle spans render on one
/// track per slot, so slot occupancy over time is visible at a glance.
/// tools/trace_summary.py validates and summarizes the file offline.

#ifndef NLFM_SERVE_TRACE_HH
#define NLFM_SERVE_TRACE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace nlfm::serve
{

/// What a span measured. Driver phases cover one tick's pipeline
/// stages; Queue/Service are per-request lifecycle halves.
enum class TracePhase : std::uint8_t
{
    Admit,          ///< pop + slot admission of one request
    SessionRestore, ///< warm-start snapshot restore within an admit
    Stage,          ///< staging input frames into the panel (per tick)
    Probe,          ///< BNN probe share of the step (per tick, memoized)
    Decide,         ///< memo decide-loop share of the step (per tick)
    Commit,         ///< miss FMA + table-refresh share of the step
    Step,           ///< the full stepper pass (per tick)
    Complete,       ///< snapshot + response delivery of one request
    Queue,          ///< request lifecycle: enqueue -> slot admission
    Service,        ///< request lifecycle: slot admission -> completion
};

/// Stable lower-case name of @p phase (trace event / metric key).
const char *tracePhaseName(TracePhase phase);

/// One recorded span. Times are nanoseconds relative to the tracer's
/// construction epoch (Clock, i.e. steady_clock).
struct TraceSpan
{
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    TracePhase phase = TracePhase::Step;
    std::uint32_t slot = 0;
    std::uint32_t model = 0;
    /// Request id for per-request spans (Admit/SessionRestore/
    /// Complete/Queue/Service); 0 for per-tick phases.
    std::uint64_t requestId = 0;
    /// Served theta for per-request spans; 0 otherwise.
    float theta = 0.0f;
    bool warmResumed = false;
};

/// Fixed-capacity span ring (see the file comment for the threading
/// and export contract).
class DriverTracer
{
  public:
    /// @param capacity ring size in spans (> 0); memory is allocated
    ///                 here, never on record().
    explicit DriverTracer(std::size_t capacity);

    std::size_t capacity() const { return ring_.size(); }

    /// Spans recorded since construction (including overwritten ones).
    std::uint64_t recorded() const { return recorded_; }

    /// Spans lost to ring wrap-around.
    std::uint64_t dropped() const
    {
        return recorded_ <= ring_.size() ? 0
                                         : recorded_ - ring_.size();
    }

    /// Nanoseconds since the tracer epoch, for span start stamps.
    std::int64_t nowNs() const { return toNs(Clock::now()); }

    /// Convert an absolute Clock timestamp to epoch-relative ns (for
    /// spans reconstructed from SlotState timestamps).
    std::int64_t toNs(Clock::time_point t) const;

    /// Append one span (driver thread only; O(1), allocation-free).
    void record(const TraceSpan &span);

    /// Oldest-first copy of the retained spans (post-stop export).
    std::vector<TraceSpan> spans() const;

    /// Render the retained spans as Chrome trace-event JSON.
    /// @p model_names labels each span's model track ("model" arg);
    /// {} leaves the arg off.
    std::string
    chromeTraceJson(std::span<const std::string> model_names = {}) const;

  private:
    Clock::time_point epoch_;
    std::vector<TraceSpan> ring_;
    std::size_t head_ = 0; ///< next write index
    std::uint64_t recorded_ = 0;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_TRACE_HH
