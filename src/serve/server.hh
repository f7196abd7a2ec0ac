/// @file
/// Long-lived RNN inference server with continuous batching, for one
/// resident model.
///
/// A Server is a one-model FleetServer: it registers its network (and
/// binarized mirror) as the single model "default" and forwards every
/// call to it. Everything a FleetServer does — admitting requests into
/// free slots of the panel while their neighbors are mid-sequence,
/// stepping every active slot one timestep per driver tick, per-request
/// theta and deadlines, admission policies, the theta autopilot,
/// session warm start and telemetry — a Server does the same way,
/// through the same driver loop (serve/fleet_server.hh,
/// docs/SERVING.md).
///
/// Determinism: each request's *output* is bitwise identical to
/// RnnNetwork::forward on the same input at the same theta, regardless
/// of what else shared the panel, which slot it landed in, worker
/// count, or chunk size. *Aggregate* numbers (latencies, which tick
/// admitted what) depend on wall-clock timing and are not reproducible
/// run to run.
///
/// Threading: clients call enqueue()/collect() from any thread; the
/// FleetServer's driver thread owns the scheduler, stepper and engine.

#ifndef NLFM_SERVE_SERVER_HH
#define NLFM_SERVE_SERVER_HH

#include "serve/fleet_server.hh"

namespace nlfm::serve
{

/// Server configuration. Each field maps one-to-one onto a FleetOptions
/// or ModelSpec field of the same name, which carries the full
/// contract.
struct ServerOptions
{
    /// FleetOptions::slots.
    std::size_t slots = 8;

    /// FleetOptions::queueCapacity.
    std::size_t queueCapacity = 64;

    /// ModelSpec::memo; memo.theta is the default per-request theta.
    memo::MemoOptions memo{};

    /// ModelSpec::memoized; false serves exact (DirectBatchEvaluator).
    bool memoized = true;

    /// FleetOptions::workers.
    std::size_t workers = 1;

    /// FleetOptions::chunkSize.
    std::size_t chunkSize = 64;

    /// FleetOptions::shedExpired.
    bool shedExpired = false;

    /// FleetOptions::queuePolicy.
    QueuePolicy queuePolicy = QueuePolicy::Fifo;

    /// FleetOptions::shedPredicted; requires calibratedStepCostMs > 0.
    bool shedPredicted = false;

    /// ModelSpec::calibratedStepCostMs; 0 = uncalibrated.
    double calibratedStepCostMs = 0.0;

    /// ModelSpec::autopilot; requires memoized.
    ThetaAutopilotOptions autopilot{};

    /// FleetOptions::sessionCapacity; 0 disables the session store.
    std::size_t sessionCapacity = 64;

    /// FleetOptions::telemetry; per-model series are labeled "default".
    TelemetryOptions telemetry{};
};

/// Continuous-batching inference server for one model: a FleetServer
/// with a one-entry registry.
class Server
{
  public:
    /// @param network unidirectional stack (asserted by NetworkStepper);
    ///                must outlive the server
    /// @param bnn     binarized mirror; required when options.memoized
    ///                with the BNN predictor, unused otherwise
    Server(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
           const ServerOptions &options);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    const ServerOptions &options() const { return options_; }

    // Each call below is the FleetServer call of the same name on the
    // one model (id 0); its contract is documented there.

    std::future<Response> enqueue(Request request)
    {
        return fleet_.enqueue(0, std::move(request));
    }

    static Response collect(std::future<Response> &future)
    {
        return future.get();
    }
    static Response collect(std::future<Response> &&future)
    {
        return future.get();
    }

    void drain() { fleet_.drain(); }
    void stop() { fleet_.stop(); }

    StatsSnapshot stats() const { return fleet_.stats(); }
    void resetStats() { fleet_.resetStats(); }

    std::size_t queueDepth() const { return fleet_.queueDepth(0); }
    double thetaFloor() const { return fleet_.thetaFloor(0); }
    double maxThetaFloorSeen() const { return fleet_.maxThetaFloorSeen(0); }
    std::size_t sessionCount() const { return fleet_.sessionCount(0); }
    std::uint64_t sessionEvictions() const
    {
        return fleet_.sessionEvictions();
    }

    Telemetry *telemetry() { return fleet_.telemetry(); }
    const Telemetry *telemetry() const { return fleet_.telemetry(); }

    std::vector<ThetaDecision> thetaAudit() const
    {
        return fleet_.thetaAudit(0);
    }

  private:
    ServerOptions options_;
    FleetServer fleet_;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_SERVER_HH
