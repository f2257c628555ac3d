/**
 * @file
 * Benchmark-side span recorder: Chrome-trace "X" events around the
 * calls the benchmark makes into each layer (data, train, core,
 * snapshot, serve, io), one category per layer.
 *
 * Spans live in memory and are written once, after the measured
 * window. Timestamps come from obs::traceNowNs() so the file merges
 * with the program's own trace on one time axis.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One completed span. */
struct Span
{
    const char *cat = nullptr;  //!< layer (static string)
    const char *name = nullptr; //!< call (static string)
    std::uint32_t tid = 0;      //!< small per-thread id
    std::uint64_t tsNs = 0;     //!< start, trace epoch
    std::uint64_t durNs = 0;    //!< duration
};

/** Thread-safe in-memory span sink; off until enable(). */
class SpanRecorder
{
  public:
    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void add(const char *cat, const char *name, std::uint64_t ts_ns,
             std::uint64_t dur_ns);

    /** @return summed duration and count of spans (cat, name). */
    std::uint64_t totalNs(const char *cat, const char *name,
                          std::uint64_t *count = nullptr) const;

    /** Write a Chrome-trace JSON file; @return false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** @return now on the trace clock (ns). */
std::uint64_t nowNs();

/** RAII span: records [construction, destruction) when enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *cat, const char *name)
        : rec_(rec), cat_(cat), name_(name), armed_(rec.enabled()),
          start_(armed_ ? nowNs() : 0)
    {
    }
    ~ScopedSpan()
    {
        if (armed_)
            rec_.add(cat_, name_, start_, nowNs() - start_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    const char *cat_;
    const char *name_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
