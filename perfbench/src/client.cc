#include "client.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <utility>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace perfbench {

using lazydp::PendingRequestPtr;
using lazydp::ServeResult;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
uniform01(std::uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

QueryMaker::QueryMaker(const lazydp::ModelConfig &config, double zipf_s,
                       std::uint64_t seed)
    : numDense_(config.numDense), pooling_(config.pooling), seed_(seed)
{
    // One CDF per distinct table size, shared by equal-sized tables.
    std::map<std::uint64_t, std::size_t> by_rows;
    for (std::size_t t = 0; t < config.numTables; ++t)
        by_rows.emplace(config.rowsForTable(t), by_rows.size());
    cdfs_.resize(by_rows.size());
    for (const auto &[rows, slot] : by_rows) {
        std::vector<double> &cdf = cdfs_[slot];
        cdf.resize(rows);
        double acc = 0.0;
        for (std::uint64_t r = 0; r < rows; ++r) {
            acc += std::pow(static_cast<double>(r + 1), -zipf_s);
            cdf[r] = acc;
        }
        for (double &c : cdf)
            c /= acc;
    }
    for (std::size_t t = 0; t < config.numTables; ++t)
        tableCdf_.push_back(&cdfs_[by_rows.at(config.rowsForTable(t))]);
}

lazydp::ServeQuery
QueryMaker::make(std::uint64_t i) const
{
    std::uint64_t state = seed_ ^ (i * 0xD1342543DE82EF95ull);
    lazydp::ServeQuery q;
    q.dense.resize(numDense_);
    for (float &d : q.dense)
        d = static_cast<float>(uniform01(state));
    q.indices.reserve(tableCdf_.size() * pooling_);
    for (const std::vector<double> *cdf : tableCdf_) {
        for (std::size_t k = 0; k < pooling_; ++k) {
            const double u = uniform01(state);
            const auto it = std::lower_bound(cdf->begin(), cdf->end(), u);
            const auto row = std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf->begin()),
                cdf->size() - 1);
            q.indices.push_back(static_cast<std::uint32_t>(row));
        }
    }
    return q;
}

std::vector<double>
poissonSchedule(double qps, double horizon_s, std::uint64_t seed)
{
    std::vector<double> at;
    at.reserve(static_cast<std::size_t>(qps * horizon_s * 1.05) + 16);
    std::uint64_t state = seed;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-uniform01(state)) / qps;
        if (t >= horizon_s)
            break;
        at.push_back(t);
    }
    return at;
}

OpenLoopClient::OpenLoopClient(lazydp::ServeEngine &engine,
                               const lazydp::ModelSnapshotStore &store,
                               const QueryMaker &maker,
                               std::vector<double> schedule,
                               lazydp::SloClass slo, SpanRecorder &spans)
    : engine_(engine), store_(store), maker_(maker),
      schedule_(std::move(schedule)), slo_(slo), spans_(spans)
{
}

OpenLoopClient::~OpenLoopClient()
{
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
}

void
OpenLoopClient::start()
{
    t0_ = Clock::now();
    thread_ = std::thread([this] {
        try {
            loop();
        } catch (...) {
            error_ = std::current_exception();
        }
    });
}

void
OpenLoopClient::stop()
{
    stop_.store(true, std::memory_order_relaxed);
    join();
}

void
OpenLoopClient::join()
{
    if (thread_.joinable())
        thread_.join();
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
OpenLoopClient::loop()
{
#if defined(__linux__)
    // Default 50 us timer slack would add up to one mean inter-arrival
    // gap of lateness to every sleep.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
    struct InFlight
    {
        PendingRequestPtr req;
        std::size_t index;
        bool traced;
    };
    std::deque<InFlight> inflight;
    std::vector<Outcome> &out = report_.outcomes;
    out.reserve(schedule_.size());

    auto record = [&](const InFlight &f) {
        const ServeResult &r = f.req->wait();
        Outcome o;
        const auto due =
            t0_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule_[f.index]));
        const Clock::time_point done = f.req->completedAt();
        o.latencyS = r.status == ServeResult::Status::Ok
                         ? std::chrono::duration<double>(done - due).count()
                         : std::numeric_limits<double>::infinity();
        o.completedS = std::chrono::duration<double>(done - t0_).count();
        o.status = r.status;
        o.version = r.version;
        o.score = r.score;
        o.traced = f.traced;
        out.push_back(o);
    };
    auto note_version = [&](Clock::time_point now) {
        const std::uint64_t v = store_.version();
        if (report_.versions.empty() || report_.versions.back().second != v)
            report_.versions.emplace_back(
                std::chrono::duration<double>(now - t0_).count(), v);
    };

    std::size_t i = 0;
    lazydp::ServeQuery next =
        schedule_.empty() ? lazydp::ServeQuery{} : maker_.make(0);
    while (i < schedule_.size() &&
           !stop_.load(std::memory_order_relaxed)) {
        const auto due =
            t0_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule_[i]));
        Clock::time_point now = Clock::now();
        note_version(now);
        if (now < due) {
            while (!inflight.empty() && inflight.front().req->done()) {
                record(inflight.front());
                inflight.pop_front();
            }
            std::this_thread::sleep_until(due);
            continue;
        }
        const bool traced = spans_.enabled();
        const std::uint64_t t_submit = traced ? nowNs() : 0;
        PendingRequestPtr req = engine_.submit(std::move(next), slo_);
        if (traced) {
            const std::uint64_t dur = nowNs() - t_submit;
            spans_.add("serve", "submit", t_submit, dur);
            report_.submitUs.push_back(static_cast<double>(dur) / 1e3);
        }
        report_.maxLagS = std::max(
            report_.maxLagS,
            std::chrono::duration<double>(now - due).count());
        inflight.push_back({std::move(req), i, traced});
        ++i;
        if (i < schedule_.size())
            next = maker_.make(i);
    }
    for (const InFlight &f : inflight)
        record(f);
    note_version(Clock::now());
}

double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    // nearest rank: the smallest value with at least q of the sample
    // at or below it
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t idx = rank < 1.0 ? 0
                                       : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace perfbench
