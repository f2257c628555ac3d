#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"

namespace perfbench {

namespace {

std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

} // namespace

std::uint64_t
nowNs()
{
    return lazydp::obs::traceNowNs();
}

void
SpanRecorder::add(const char *cat, const char *name, std::uint64_t ts_ns,
                  std::uint64_t dur_ns)
{
    const std::uint32_t tid = threadId();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({cat, name, tid, ts_ns, dur_ns});
}

std::uint64_t
SpanRecorder::totalNs(const char *cat, const char *name,
                      std::uint64_t *count) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0, n = 0;
    for (const Span &s : spans_) {
        if (std::strcmp(s.cat, cat) == 0 &&
            std::strcmp(s.name, name) == 0) {
            total += s.durNs;
            ++n;
        }
    }
    if (count != nullptr)
        *count = n;
    return total;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // pid 2 keeps the benchmark's thread ids apart from the program's
    // (pid 1) when the two files are merged.
    std::fprintf(f, "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":2,\"tid\":0,"
                    "\"name\":\"process_name\",\"args\":{\"name\":"
                    "\"perfbench\"}}");
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span &s : spans_) {
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%" PRIu32
                     ",\"ts\":%.3f,\"dur\":%.3f,\"cat\":\"%s\","
                     "\"name\":\"%s\"}",
                     s.tid, static_cast<double>(s.tsNs) / 1e3,
                     static_cast<double>(s.durNs) / 1e3, s.cat, s.name);
    }
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
