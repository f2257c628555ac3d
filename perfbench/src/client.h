/**
 * @file
 * Open-loop serving client built outside the program under test.
 *
 * Queries and the Poisson arrival schedule are pure functions of the
 * benchmark seed (SplitMix64 streams, an inverse-CDF Zipf sampler of
 * the benchmark's own), and requests go straight to
 * ServeEngine::submit: nothing in serve/load_generator is used, so a
 * change there cannot move the yardstick.
 *
 * Every request is timed from its SCHEDULED arrival, so a stall that
 * delays the client also shows in the latency of the requests queued
 * behind it; how late the client ran is reported separately.
 */

#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "nn/model_config.h"
#include "serve/serve_engine.h"
#include "spans.h"

namespace perfbench {

/** SplitMix64 step: the benchmark's only random source. */
std::uint64_t splitmix64(std::uint64_t &state);

/** @return a double in [0, 1) from @p state. */
double uniform01(std::uint64_t &state);

/** Deterministic query source: Zipf row ids, uniform dense features. */
class QueryMaker
{
  public:
    QueryMaker(const lazydp::ModelConfig &config, double zipf_s,
               std::uint64_t seed);

    /** @return query @p i (a pure function of the seed and @p i). */
    lazydp::ServeQuery make(std::uint64_t i) const;

  private:
    std::size_t numDense_;
    std::size_t pooling_;
    std::uint64_t seed_;
    /** Per-table Zipf CDF over row ranks (row r has rank r). */
    std::vector<const std::vector<double> *> tableCdf_;
    std::vector<std::vector<double>> cdfs_;
};

/** @return Poisson arrival offsets (seconds) covering [0, horizon). */
std::vector<double> poissonSchedule(double qps, double horizon_s,
                                    std::uint64_t seed);

/** Compact outcome of one sent request. */
struct Outcome
{
    double latencyS = 0.0; //!< scheduled arrival -> completion
    double completedS = 0.0; //!< completion, seconds since client start
    lazydp::ServeResult::Status status = lazydp::ServeResult::Status::Ok;
    std::uint64_t version = 0;
    float score = 0.0f;
    bool traced = false; //!< sent while the span recorder was on
};

/** Everything the client observed. */
struct ClientReport
{
    std::vector<Outcome> outcomes;  //!< one per sent request
    double maxLagS = 0.0;           //!< worst submit delay vs schedule
    std::vector<double> submitUs;   //!< submit() call time (traced)
    /** (seconds since start, store version) at every version change. */
    std::vector<std::pair<double, std::uint64_t>> versions;
};

/** One client thread replaying a schedule until stop() or its end. */
class OpenLoopClient
{
  public:
    OpenLoopClient(lazydp::ServeEngine &engine,
                   const lazydp::ModelSnapshotStore &store,
                   const QueryMaker &maker, std::vector<double> schedule,
                   lazydp::SloClass slo, SpanRecorder &spans);
    ~OpenLoopClient();

    OpenLoopClient(const OpenLoopClient &) = delete;
    OpenLoopClient &operator=(const OpenLoopClient &) = delete;

    /** Start sending; the schedule's time zero is now. */
    void start();

    /**
     * Stop sending, wait for every sent request, join the thread.
     * Rethrows an exception the client thread raised.
     */
    void stop();

    /** Send the whole schedule, wait for every request, join (as stop()). */
    void join();

    /** @return the report (valid after stop()). */
    const ClientReport &report() const { return report_; }

  private:
    using Clock = std::chrono::steady_clock;

    void loop();

    lazydp::ServeEngine &engine_;
    const lazydp::ModelSnapshotStore &store_;
    const QueryMaker &maker_;
    std::vector<double> schedule_;
    lazydp::SloClass slo_;
    SpanRecorder &spans_;
    Clock::time_point t0_{};
    std::atomic<bool> stop_{false};
    ClientReport report_;
    std::exception_ptr error_; //!< raised by loop(), rethrown by join()
    std::thread thread_; //!< last: uses every member above
};

/** Nearest-rank quantile of a sorted vector (q in [0, 1]). */
double sortedQuantile(const std::vector<double> &sorted, double q);

} // namespace perfbench

#endif // PERFBENCH_CLIENT_H
