/**
 * @file
 * fleet-open: open-loop arrivals into a FleetServer hosting IMDB (LSTM
 * 1x128) and RateRNN (2x256) on one 16-slot pool with 2 stepping
 * workers.
 *
 * The schedule is a Poisson process conditioned on its count (sorted
 * uniform start times over the window), so every seed offers exactly
 * the same number of requests. A fixed share of the starts open a
 * multi-turn session: turn k+1 is due several deadlines after turn k
 * was due, so it is enqueued after its predecessor completed and
 * resumes warm. Requests are ragged
 * (20-100 steps), alternate between two thetas per model (so mixed
 * panels take the scalar decide path), and carry a deadline.
 *
 * One generator thread (the main thread) sleeps until each due time
 * and enqueues; queues hold the whole schedule, so enqueue never blocks
 * and any lateness is the generator's own, reported as loadgen.* and
 * included in every latency: a request's latency runs from its due
 * time, i.e. enqueue lateness plus Response::latencyMs. One collector
 * thread takes each response as it completes, decodes it and drops its
 * output (keeping a sample for the output check), so the process does
 * not grow with the window. Exact references are computed before the
 * window, on the same inputs.
 */

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>

#include "common.hh"
#include "common/parallel.hh"
#include "layer_metrics.hh"
#include "memo/memo_engine.hh"
#include "nn/serialize.hh"
#include "serve/fleet_server.hh"
#include "serve/telemetry.hh"
#include "workloads/evaluators.hh"

namespace perfbench
{

namespace
{

using namespace nlfm;

struct FleetModel
{
    const char *network;
    double thetas[2]; ///< alternated per request
};
const FleetModel kModels[] = {{"IMDB", {0.3, 0.5}}, {"RateRNN", {0.1, 0.3}}};
constexpr std::size_t kModelCount = 2;

constexpr std::size_t kSlots = 16;
constexpr std::size_t kWorkers = 2;
constexpr double kOfferedRps = 150.0;
constexpr std::size_t kMinSteps = 20, kMaxSteps = 100;
constexpr double kDeadlineMs = 40.0;
/// A follow-up turn is due this long after its predecessor was due:
/// several deadlines, so the predecessor has completed and the turn
/// resumes warm (warm vs cold, and so reuse, stay deterministic).
constexpr double kTurnSpacingMs = 4 * kDeadlineMs;
constexpr double kSessionShare = 0.15; ///< of starts
constexpr std::size_t kTurns = 3;
constexpr std::size_t kCheckedCold = 64; ///< cold responses checked
constexpr double kWarmupMs = 1500.0;
constexpr std::size_t kExactChunk = 64; ///< jobs per exact-batch chunk

/** One scheduled request. */
struct Planned
{
    double dueMs = 0.0; ///< from the window start
    std::size_t model = 0;
    double theta = 0.0;
    nn::Sequence input;
    std::size_t session = 0; ///< 0 = untagged, else session id
    std::size_t turn = 0;    ///< 0-based turn within the session
};

/**
 * A seeded shuffle of @p count values spread evenly over [lo, hi]: every
 * seed draws the same mix, in its own order, so the seed changes which
 * request gets which value but not the mix the fleet serves.
 */
std::vector<std::size_t>
stratified(std::size_t count, std::size_t lo, std::size_t hi, Rng &rng)
{
    std::vector<std::size_t> values(count);
    for (std::size_t k = 0; k < count; ++k)
        values[k] = lo + (2 * k + 1) * (hi - lo + 1) / (2 * count);
    std::shuffle(values.begin(), values.end(), rng);
    return values;
}

std::vector<Planned>
plan(std::uint64_t seed, double window_ms,
     const std::vector<std::unique_ptr<InputMaker>> &makers)
{
    Rng rng(seed * 0xd1b54a32d192ed03ull + 0xf1ee7);
    // Starts: a Poisson process conditioned on its count is a sorted
    // set of uniform times, so the offered count is the same for every
    // seed. Each session start adds kTurns - 1 follow-up turns. Which
    // starts open sessions, their models and every request's length are
    // stratified draws (see stratified()).
    const double per_start = 1.0 + kSessionShare * (kTurns - 1);
    const auto starts = static_cast<std::size_t>(
        kOfferedRps * window_ms / 1e3 / per_start + 0.5);
    const auto sessions =
        static_cast<std::size_t>(kSessionShare * starts + 0.5);
    const std::size_t requests = starts + sessions * (kTurns - 1);
    std::vector<double> times(starts);
    for (double &t : times)
        t = rng.uniform(0.0, window_ms);
    std::sort(times.begin(), times.end());
    const auto session_rank = stratified(starts, 0, starts - 1, rng);
    const auto models = stratified(starts, 0, kModelCount - 1, rng);
    const auto lengths = stratified(requests, kMinSteps, kMaxSteps, rng);

    std::vector<Planned> out;
    std::size_t next_session = 1;
    for (std::size_t s = 0; s < starts; ++s) {
        Planned base;
        base.model = models[s];
        base.theta = kModels[base.model].thetas[s % 2];
        base.dueMs = times[s];
        const bool is_session = session_rank[s] < sessions;
        if (is_session)
            base.session = next_session++;
        for (std::size_t k = 0; k < (is_session ? kTurns : 1); ++k) {
            Planned p = base;
            p.turn = k;
            p.dueMs = base.dueMs + k * kTurnSpacingMs;
            Rng seq_rng = rng.fork(out.size());
            p.input = makers[p.model]->make(lengths[out.size()], seq_rng);
            out.push_back(std::move(p));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Planned &a, const Planned &b) {
                         return a.dueMs < b.dueMs;
                     });
    return out;
}

constexpr auto kSpinWindow = std::chrono::microseconds(1500);

/** What the client saw of one request. */
struct Outcome
{
    double lateMs = 0.0;    ///< enqueue start - due
    double enqueueUs = 0.0; ///< duration of the enqueue call
    bool completed = false;
    serve::Response response;   ///< output dropped unless kept
    metrics::TokenSeq decoded;  ///< canonical decode of the output
    bool shapeOk = false;       ///< one output per input step
    bool kept = false;          ///< output kept for the serial check
};

/** The loaded models and one fleet server over them. */
struct Fleet
{
    std::vector<std::unique_ptr<nn::RnnNetwork>> networks;
    std::vector<std::unique_ptr<nn::BinarizedNetwork>> bnns;
    std::unique_ptr<serve::FleetServer> server;
};

Fleet
setUp(const std::vector<std::string> &paths, std::size_t queue_capacity,
      bool trace, std::size_t trace_capacity)
{
    Fleet fleet;
    serve::ModelRegistry registry;
    for (std::size_t m = 0; m < kModelCount; ++m) {
        fleet.networks.push_back(nn::loadNetwork(paths[m]));
        fleet.bnns.push_back(
            std::make_unique<nn::BinarizedNetwork>(*fleet.networks[m]));
        serve::ModelSpec spec;
        spec.name = kModels[m].network;
        spec.network = fleet.networks[m].get();
        spec.bnn = fleet.bnns[m].get();
        spec.memo.predictor = memo::PredictorKind::Bnn;
        spec.memo.theta = kModels[m].thetas[0];
        registry.add(spec);
    }
    serve::FleetOptions options;
    options.slots = kSlots;
    options.workers = kWorkers;
    options.queueCapacity = queue_capacity;
    options.sessionCapacity = queue_capacity;
    options.telemetry.trace = trace;
    options.telemetry.traceCapacity = trace_capacity;
    fleet.server = std::make_unique<serve::FleetServer>(registry, options);
    return fleet;
}

using Decoder = std::function<metrics::TokenSeq(std::size_t model,
                                                const nn::Sequence &)>;

/**
 * Drive @p schedule open-loop into @p server. The collector thread
 * decodes each response with @p decode and keeps the outputs of every
 * @p keep_stride-th cold response.
 */
std::vector<Outcome>
drive(serve::FleetServer &server, const std::vector<Planned> &schedule,
      const Decoder &decode, std::size_t keep_stride,
      const std::string &session_prefix = "s")
{
    std::vector<Outcome> outcomes(schedule.size());
    std::vector<std::future<serve::Response>> futures(schedule.size());
    std::mutex mutex;
    std::condition_variable published_cv;
    std::size_t published = 0; ///< futures[0, published) are valid

    std::thread collector([&] {
        std::size_t cold = 0;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                published_cv.wait(lock, [&] { return published > i; });
            }
            Outcome &o = outcomes[i];
            try {
                o.response = serve::FleetServer::collect(futures[i]);
            } catch (const std::exception &e) {
                note(std::string("request failed: ") + e.what());
                continue;
            }
            o.completed = true;
            o.shapeOk = o.response.steps == schedule[i].input.size() &&
                        o.response.output.size() == o.response.steps;
            o.decoded = decode(schedule[i].model, o.response.output);
            o.kept = !o.response.warmResumed && cold++ % keep_stride == 0;
            if (!o.kept)
                nn::Sequence().swap(o.response.output);
        }
    });

    const auto origin = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Planned &p = schedule[i];
        const auto due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(p.dueMs));
        // Sleep to just short of the due time, then spin: a sleeping
        // thread's wake-up on a virtualized host can be late by
        // milliseconds, which would be charged to every latency.
        std::this_thread::sleep_until(due - kSpinWindow);
        while (Clock::now() < due)
            std::this_thread::yield();
        serve::Request request;
        request.input = p.input;
        request.theta = p.theta;
        request.deadlineMs = kDeadlineMs;
        if (p.session != 0)
            request.sessionId = session_prefix + std::to_string(p.session);
        const auto start = Clock::now();
        auto future = server.enqueue(p.model, std::move(request));
        const auto end = Clock::now();
        outcomes[i].enqueueUs =
            std::chrono::duration<double, std::micro>(end - start).count();
        outcomes[i].lateMs =
            std::chrono::duration<double, std::milli>(start - due).count();
        {
            std::lock_guard<std::mutex> lock(mutex);
            futures[i] = std::move(future);
            published = i + 1;
        }
        published_cv.notify_one();
    }
    server.drain();
    collector.join();
    return outcomes;
}

/** Latency and goodput summary of one driven window. */
struct Window
{
    std::vector<double> latencyMs; ///< from due, completed requests
    std::size_t completed = 0, met = 0, failed = 0;
    double spanSec = 0.0; ///< first due -> last completion
};

Window
summarize(const std::vector<Planned> &schedule,
          const std::vector<Outcome> &outcomes)
{
    Window w;
    double last_ms = 0.0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Outcome &o = outcomes[i];
        if (!o.completed) {
            ++w.failed;
            continue;
        }
        const double latency = o.lateMs + o.response.latencyMs;
        w.latencyMs.push_back(latency);
        ++w.completed;
        if (latency <= kDeadlineMs)
            ++w.met;
        last_ms = std::max(last_ms, schedule[i].dueMs + latency);
    }
    w.spanSec = (last_ms - schedule.front().dueMs) / 1e3;
    return w;
}

/** Every request's exact decode, and the timed exact batches. */
struct ExactReference
{
    std::vector<metrics::TokenSeq> decoded;
    std::vector<double> seconds; ///< per timed repeat over the schedule
};

/**
 * Run the schedule's inputs through forwardBatchBaseline, repeatedly
 * for at least @p min_seconds. Untagged requests run alone; each
 * session runs as its turns concatenated, since warm turns continue one
 * sequence.
 */
ExactReference
exactReference(const std::vector<Planned> &schedule, Fleet &fleet,
               const Decoder &decode, double min_seconds)
{
    std::vector<std::vector<std::size_t>> jobs_of[kModelCount];
    std::vector<nn::Sequence> job_inputs[kModelCount];
    {
        std::vector<std::size_t> session_job(schedule.size() + 1, 0);
        std::vector<bool> has_job(schedule.size() + 1, false);
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const Planned &p = schedule[i];
            auto &jobs = jobs_of[p.model];
            auto &inputs = job_inputs[p.model];
            if (p.session != 0 && has_job[p.session]) {
                const std::size_t j = session_job[p.session];
                jobs[j].push_back(i);
                inputs[j].insert(inputs[j].end(), p.input.begin(),
                                 p.input.end());
                continue;
            }
            if (p.session != 0) {
                has_job[p.session] = true;
                session_job[p.session] = jobs.size();
            }
            jobs.push_back({i});
            inputs.push_back(p.input);
        }
    }
    // Exact batches of one chunk (at most 64 jobs) per pool thread: jobs
    // sorted longest first, each block of threads x 64 dealt to the
    // chunks in snake order, so the chunks of a block carry about the
    // same number of steps and the exact time measures the kernels, not
    // how the seed's ragged lengths happened to split.
    struct ExactBlock
    {
        std::size_t model = 0;
        std::vector<std::vector<std::size_t>> jobs;
        std::vector<nn::Sequence> inputs;
    };
    ThreadPool &pool = ThreadPool::global();
    const std::size_t threads = pool.threadCount();
    std::vector<ExactBlock> blocks;
    for (std::size_t m = 0; m < kModelCount; ++m) {
        const std::size_t n = job_inputs[m].size();
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return job_inputs[m][a].size() >
                                    job_inputs[m][b].size();
                         });
        for (std::size_t b = 0; b < n; b += threads * kExactChunk) {
            const std::size_t end = std::min(n, b + threads * kExactChunk);
            std::vector<std::vector<std::size_t>> lanes(threads);
            for (std::size_t k = b; k < end; ++k) {
                const std::size_t round = (k - b) / threads;
                const std::size_t lane = (k - b) % threads;
                lanes[round % 2 == 0 ? lane : threads - 1 - lane].push_back(
                    order[k]);
            }
            ExactBlock block;
            block.model = m;
            for (const auto &lane : lanes) {
                for (const std::size_t job : lane) {
                    block.jobs.push_back(std::move(jobs_of[m][job]));
                    block.inputs.push_back(std::move(job_inputs[m][job]));
                }
            }
            blocks.push_back(std::move(block));
        }
    }
    // Timed repeats after one warm-up.
    ExactReference out;
    out.decoded.resize(schedule.size());
    const auto exact_begin = Clock::now();
    for (std::size_t rep = 0;
         rep < 4 || secondsSince(exact_begin) < min_seconds;
         ++rep) {
        const auto start = Clock::now();
        for (const ExactBlock &block : blocks) {
            nn::BatchForwardOptions forward;
            forward.pool = &pool;
            forward.chunkSize = (block.inputs.size() + threads - 1) / threads;
            const auto outs =
                fleet.networks[block.model]->forwardBatchBaseline(
                    block.inputs, forward);
            if (rep > 0)
                continue;
            for (std::size_t j = 0; j < outs.size(); ++j) {
                std::size_t offset = 0;
                for (const std::size_t i : block.jobs[j]) {
                    const std::size_t len = schedule[i].input.size();
                    out.decoded[i] = decode(
                        block.model,
                        nn::Sequence(outs[j].begin() + offset,
                                     outs[j].begin() + offset + len));
                    offset += len;
                }
            }
        }
        if (rep > 0)
            out.seconds.push_back(secondsSince(start));
    }
    return out;
}

} // namespace

RunResult
runFleetWorkload(const RunOptions &options)
{
    RunResult result;

    // ---- prep (not timed): zoo weights to model files, the schedule.
    std::filesystem::create_directories(options.modelDir);
    std::vector<std::string> paths;
    std::vector<std::unique_ptr<workloads::Workload>> zoo;
    std::vector<std::unique_ptr<workloads::WorkloadEvaluator>> scorers;
    std::vector<std::unique_ptr<InputMaker>> makers;
    for (const FleetModel &model : kModels) {
        const auto &spec = workloads::specByName(model.network);
        zoo.push_back(workloads::buildWorkload(spec, 4, 2));
        paths.push_back(options.modelDir + "/" + model.network + ".nlfm");
        nn::saveNetwork(*zoo.back()->network, paths.back());
        scorers.push_back(
            std::make_unique<workloads::WorkloadEvaluator>(*zoo.back()));
        makers.push_back(std::make_unique<InputMaker>(zoo.back()->spec));
    }
    const Decoder decode = [&](std::size_t model, const nn::Sequence &out) {
        return scorers[model]->decodeSequence(out);
    };
    // The window takes 90 % of the run's seconds (the exact reference
    // the rest). Traced runs split it: untraced first (client-side serve
    // and loadgen metrics, the overhead baseline), then traced.
    const double window_ms =
        options.seconds * 1e3 * (options.trace ? 0.45 : 0.9);
    const std::vector<Planned> schedule = plan(options.seed, window_ms, makers);
    // Warm-up traffic before each measured window (first-touch of the
    // server's tables and buffers), from its own stream and with its
    // own session ids.
    const std::vector<Planned> warmup =
        plan(options.seed ^ 0x5eed5eedull, kWarmupMs, makers);
    const std::size_t capacity = schedule.size() + warmup.size();

    // ---- setup (timed): load both models + mirrors + fleet server.
    std::vector<double> setup_s;
    std::optional<Fleet> fleet;
    while (!setupDone(setup_s)) {
        fleet.reset();
        const auto start = Clock::now();
        fleet.emplace(setUp(paths, capacity, false, 0));
        setup_s.push_back(secondsSince(start));
    }
    Fleet &serving = *fleet;

    for (std::size_t m = 0; m < kModelCount; ++m)
        result.param(std::string("model.") + kModels[m].network,
                     serving.networks[m]->config().describe() + ", theta " +
                         std::to_string(kModels[m].thetas[0]) + "/" +
                         std::to_string(kModels[m].thetas[1]));
    result.param("slots", std::to_string(kSlots));
    result.param("workers", std::to_string(kWorkers));
    result.param("offered_rps", std::to_string(kOfferedRps));
    result.param("window_s", std::to_string(window_ms / 1e3));
    result.param("requests", std::to_string(schedule.size()));
    result.param("steps", std::to_string(kMinSteps) + "-" +
                              std::to_string(kMaxSteps));
    result.param("deadline_ms", std::to_string(kDeadlineMs));
    result.param("session_share_of_starts", std::to_string(kSessionShare));
    result.param("turns_per_session", std::to_string(kTurns));
    result.count("setup_repeats", setup_s.size());
    // While serving: the generator (main), the collector, the driver and
    // workers - 1 pool threads.
    result.threads = kWorkers + 1;

    // ---- exact references, before the window.
    const ExactReference exact =
        exactReference(schedule, serving, decode, 0.1 * options.seconds);

    // ---- the open-loop window.
    std::size_t starts = 0;
    for (const Planned &p : schedule)
        starts += p.turn == 0;
    const std::size_t keep_stride =
        std::max<std::size_t>(1, starts / kCheckedCold);
    drive(*serving.server, warmup, decode, warmup.size(), "w");
    const std::vector<Outcome> outcomes =
        drive(*serving.server, schedule, decode, keep_stride);
    serving.server->stop();
    const Window window = summarize(schedule, outcomes);
    std::vector<Outcome> traced_outcomes;
    std::optional<Fleet> traced;
    if (options.trace) {
        traced.emplace(setUp(paths, capacity, true, std::size_t{1} << 20));
        drive(*traced->server, warmup, decode, warmup.size(), "w");
        traced_outcomes =
            drive(*traced->server, schedule, decode, schedule.size());
        traced->server->stop();
    }
    for (const std::string &path : paths)
        std::filesystem::remove(path);

    // ---- output checks: every response's shape, and the kept cold
    // responses against the serial MemoEngine at the request's theta.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Outcome &o = outcomes[i];
        if (!o.completed)
            continue;
        bool ok = o.shapeOk;
        if (ok && o.kept) {
            const Planned &p = schedule[i];
            memo::MemoOptions memo;
            memo.predictor = memo::PredictorKind::Bnn;
            memo.theta = p.theta;
            memo::MemoEngine serial(*serving.networks[p.model],
                                    serving.bnns[p.model].get(), memo);
            ok = sameBits(serving.networks[p.model]->forward(p.input, serial),
                          o.response.output);
            ++checked;
        }
        if (!ok) {
            ++result.mismatches;
            note("output mismatch: request " + std::to_string(i));
        }
    }
    result.count("checked_cold_responses", checked);

    // ---- accuracy and reuse over every delivered response.
    std::vector<metrics::TokenSeq> ref[kModelCount], hyp[kModelCount];
    double reused = 0.0, attempted_neurons = 0.0;
    std::size_t warm = 0, follow_ups = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const Outcome &o = outcomes[i];
        const std::size_t m = schedule[i].model;
        follow_ups += schedule[i].turn > 0;
        if (!o.completed)
            continue;
        warm += o.response.warmResumed;
        ref[m].push_back(exact.decoded[i]);
        hyp[m].push_back(o.decoded);
        const double neurons =
            static_cast<double>(o.response.steps) *
            static_cast<double>(serving.networks[m]->totalNeurons());
        attempted_neurons += neurons;
        reused += o.response.reuseFraction * neurons;
    }
    double loss = 0.0;
    std::size_t scored = 0;
    for (std::size_t m = 0; m < kModelCount; ++m) {
        loss += scorers[m]->scoreLoss(ref[m], hyp[m]) *
                static_cast<double>(ref[m].size());
        scored += ref[m].size();
    }
    loss /= static_cast<double>(std::max<std::size_t>(1, scored));
    result.attempted = schedule.size();
    result.failed = std::min<std::uint64_t>(
        window.failed + result.mismatches, result.attempted);
    const double attempted = static_cast<double>(result.attempted);
    const double ok_met = static_cast<double>(window.met) -
                          static_cast<double>(result.mismatches);
    const double reuse_pct = 100.0 * reused / attempted_neurons;

    note("fleet-open: " + std::to_string(schedule.size()) + " requests, " +
         std::to_string(window.completed) + " completed, " +
         std::to_string(window.met) + " met deadline; p50 " +
         std::to_string(percentile(window.latencyMs, 50)) + " ms, p99 " +
         std::to_string(percentile(window.latencyMs, 99)) + " ms; reuse " +
         std::to_string(reuse_pct) + " %; warm " + std::to_string(warm) +
         "/" + std::to_string(follow_ups) + "; loss " +
         std::to_string(loss) + " pts");

    if (!options.trace) {
        result.add("seq_per_s",
                   static_cast<double>(window.completed) / window.spanSec,
                   "1/s");
        result.add("exact_seq_per_s",
                   static_cast<double>(schedule.size()) / median(exact.seconds),
                   "1/s");
        result.add("reuse_pct", reuse_pct, "%");
        result.add("loss_pts", loss, "pts");
        result.add("goodput_rps", std::max(0.0, ok_met) / window.spanSec,
                   "1/s");
        result.add("deadline_met_pct",
                   100.0 * std::max(0.0, ok_met) / attempted, "%");
        result.add("setup_s", median(setup_s), "s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        result.addUnbounded("p50_ms", percentile(window.latencyMs, 50), "ms");
        result.addUnbounded("p99_ms", percentile(window.latencyMs, 99), "ms");
        result.count("latency_samples", window.latencyMs.size());
        return result;
    }

    // ---- traced: client-side numbers from the untraced window, driver
    // tick phases from the traced one.
    LayerMetrics layers;
    std::vector<double> enqueue_us, queue_ms, service_ms, late_ms;
    for (const Outcome &o : outcomes) {
        enqueue_us.push_back(o.enqueueUs);
        late_ms.push_back(o.lateMs);
        if (o.completed) {
            queue_ms.push_back(o.response.queueMs);
            service_ms.push_back(o.response.serviceMs);
        }
    }
    layers.set("serve.enqueue_us.p50", percentile(enqueue_us, 50));
    layers.set("serve.enqueue_us.p99", percentile(enqueue_us, 99));
    layers.set("serve.queue_ms.p50", percentile(queue_ms, 50));
    layers.set("serve.queue_ms.p99", percentile(queue_ms, 99));
    layers.set("serve.service_ms.p50", percentile(service_ms, 50));
    layers.set("loadgen.latency_ms.p50", percentile(window.latencyMs, 50));
    layers.set("loadgen.latency_ms.p99", percentile(window.latencyMs, 99));
    layers.set("loadgen.late_ms.p99", percentile(late_ms, 99));
    layers.set("loadgen.late_ms.max", percentile(late_ms, 100));
    layers.set("loadgen.offered_rps",
               static_cast<double>(schedule.size()) / (window_ms / 1e3));
    layers.set("serve.warm_resume_pct",
               follow_ups == 0 ? 0.0
                               : 100.0 * static_cast<double>(warm) /
                                     static_cast<double>(follow_ups));
    layers.set("serve.shed",
               static_cast<double>(serving.server->stats().shed));

    const serve::DriverTracer &tracer =
        *traced->server->telemetry()->tracer();
    if (tracer.dropped() != 0)
        note("tracer dropped " + std::to_string(tracer.dropped()) +
             " spans; tick metrics cover the retained ones");
    result.count("trace_spans", tracer.recorded());
    double phase_ns[16] = {};
    double ticks = 0.0;
    for (const serve::TraceSpan &span : tracer.spans()) {
        phase_ns[static_cast<std::size_t>(span.phase)] +=
            static_cast<double>(span.durNs);
        ticks += span.phase == serve::TracePhase::Step;
    }
    const auto per_tick = [&](serve::TracePhase phase) {
        return ticks == 0.0
                   ? 0.0
                   : phase_ns[static_cast<std::size_t>(phase)] / 1e6 / ticks;
    };
    layers.set("serve.tick.admit_ms", per_tick(serve::TracePhase::Admit));
    layers.set("serve.tick.session_restore_ms",
               per_tick(serve::TracePhase::SessionRestore));
    layers.set("serve.tick.stage_ms", per_tick(serve::TracePhase::Stage));
    layers.set("serve.tick.step_ms", per_tick(serve::TracePhase::Step));
    layers.set("serve.tick.complete_ms",
               per_tick(serve::TracePhase::Complete));
    layers.set("serve.ticks", ticks);
    double steps = 0.0;
    for (const Outcome &o : traced_outcomes)
        if (o.completed)
            steps += static_cast<double>(o.response.steps);
    layers.set("serve.active_slots_per_tick",
               ticks == 0.0 ? 0.0 : steps / ticks);
    const double probe = per_tick(serve::TracePhase::Probe);
    const double decide = per_tick(serve::TracePhase::Decide);
    const double commit = per_tick(serve::TracePhase::Commit);
    layers.set("memo.probe_ms", probe);
    layers.set("memo.decide_ms", decide);
    layers.set("memo.commit_ms", commit);
    layers.set("memo.commit_share_pct",
               probe + decide + commit > 0.0
                   ? 100.0 * commit / (probe + decide + commit)
                   : 0.0);
    layers.set("memo.neurons_attempted", attempted_neurons);
    layers.set("memo.neurons_reused", reused);
    const Window traced_window = summarize(schedule, traced_outcomes);
    layers.set("serve.trace_overhead_pct",
               100.0 * (percentile(traced_window.latencyMs, 50) /
                            percentile(window.latencyMs, 50) -
                        1.0));
    layers.set("nn.exact_forward_batch_ms", median(exact.seconds) * 1e3);

    // Kernel micro-timings on IMDB's gate shapes at half the slot pool.
    const nn::GateInstance &gate = serving.networks[0]->gateInstances()[0];
    KernelShape shape;
    shape.neurons = gate.neurons;
    shape.xSize = gate.xSize;
    shape.hSize = gate.hSize;
    shape.batch = kSlots / 2;
    measureKernels(shape, options.seed, options.seconds * 0.1, layers);

    layers.exportTo(result);
    return result;
}

} // namespace perfbench
