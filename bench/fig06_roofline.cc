/**
 * @file
 * Paper Figure 6: effective AVX throughput of a load -> N-compute-ops
 * -> store streaming kernel as N sweeps 0..124. Small N is memory
 * bound (the noisy-gradient-update regime, N=2); large N is compute
 * bound (the Box-Muller noise-sampling regime, N~101).
 *
 * Implemented with google-benchmark: each N is one benchmark, GFLOPS
 * reported as a counter. `--threads=N` sets the pool width for the
 * sweep (default: all hardware threads). `--thread-sweep=1,2,4,8`
 * skips the full N sweep and instead measures the two paper anchor
 * kernels (N=2 memory bound, N=100 compute bound) at each thread
 * count, so the perf trajectory records *scaling*, not just
 * single-core time.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "kernels/kernel_registry.h"
#include "tensor/aligned_buffer.h"

namespace {

// Working set must exceed the LLC so small-N kernels hit DRAM.
constexpr std::size_t kElems = 48u << 20; // 192 MB per buffer

lazydp::AlignedBuffer<float> &
srcBuffer()
{
    static lazydp::AlignedBuffer<float> buf(kElems);
    return buf;
}

lazydp::AlignedBuffer<float> &
dstBuffer()
{
    static lazydp::AlignedBuffer<float> buf(kElems);
    return buf;
}

std::unique_ptr<lazydp::ThreadPool> g_pool;

/** One pool-parallel pass of the Figure 6 kernel; returns flops. */
std::size_t
streamPass(lazydp::ExecContext &exec, int n_ops)
{
    auto &src = srcBuffer();
    auto &dst = dstBuffer();
    constexpr std::size_t kBlocks = 64;
    std::vector<std::size_t> flops_per(kBlocks, 0);
    const lazydp::KernelTable &kt = lazydp::kernels();
    lazydp::parallelForShards(
        exec, kElems, kElems / kBlocks,
        [&](std::size_t s, std::size_t lo, std::size_t hi) {
            flops_per[s] = kt.streamWithOps(
                dst.data() + lo, src.data() + lo, hi - lo, n_ops);
        });
    std::size_t flops = 0;
    for (const std::size_t f : flops_per)
        flops += f;
    return flops;
}

void
BM_StreamWithOps(benchmark::State &state)
{
    const int n_ops = static_cast<int>(state.range(0));
    lazydp::ExecContext exec(g_pool.get());
    std::size_t flops = 0;
    for (auto _ : state) {
        // socket-level, matching the paper's methodology
        flops += streamPass(exec, n_ops);
        benchmark::ClobberMemory();
    }
    state.counters["GFLOPS"] = benchmark::Counter(
        static_cast<double>(flops) / 1e9, benchmark::Counter::kIsRate);
    state.counters["GB/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kElems * 8.0 / 1e9,
        benchmark::Counter::kIsRate);
}

/** Anchor-kernel thread sweep: GFLOPS / GB/s per pool width. */
void
runThreadSweep(const std::vector<std::size_t> &counts)
{
    std::printf("\nthread sweep: N=2 (memory bound) and N=100 "
                "(compute bound), 3 passes each\n");
    std::printf("%8s %14s %14s %12s\n", "threads", "N=2 GB/s",
                "N=100 GFLOPS", "N=100 spdup");
    double base_flops = 0.0;
    for (const std::size_t t : counts) {
        lazydp::ThreadPool pool(t);
        lazydp::ExecContext exec(&pool);
        streamPass(exec, 2); // warm
        const int reps = 3;
        lazydp::WallTimer mem_t;
        for (int r = 0; r < reps; ++r)
            streamPass(exec, 2);
        const double mem_secs = mem_t.seconds();
        lazydp::WallTimer cmp_t;
        std::size_t flops = 0;
        for (int r = 0; r < reps; ++r)
            flops += streamPass(exec, 100);
        const double cmp_secs = cmp_t.seconds();
        const double gbps =
            reps * static_cast<double>(kElems) * 8.0 / mem_secs / 1e9;
        const double gflops =
            static_cast<double>(flops) / cmp_secs / 1e9;
        if (base_flops == 0.0)
            base_flops = gflops;
        std::printf("%8zu %14.2f %14.2f %11.2fx\n", t, gbps, gflops,
                    gflops / base_flops);
    }
}

} // namespace

BENCHMARK(BM_StreamWithOps)
    ->DenseRange(0, 124, 4)
    ->Unit(benchmark::kMillisecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.12);

int
main(int argc, char **argv)
{
    // Peel off our flags before google-benchmark sees (and rejects)
    // them.
    std::size_t threads = lazydp::hardwareThreads();
    std::vector<std::size_t> sweep;
    std::vector<char *> passthrough;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threads=", 0) == 0) {
            threads = lazydp::parseU64(arg.substr(10));
            if (threads == 0)
                threads = lazydp::hardwareThreads();
        } else if (arg.rfind("--thread-sweep=", 0) == 0) {
            for (const auto &tok : lazydp::split(arg.substr(15), ','))
                sweep.push_back(lazydp::parseU64(tok));
        } else {
            passthrough.push_back(argv[i]);
        }
    }

    std::printf("\n################################################\n");
    std::printf("# Figure 6 -- AVX roofline: GFLOPS vs N compute ops\n");
    std::printf("# per loaded vector. N=2 ~ noisy gradient update\n");
    std::printf("# (memory bound); N=101 ~ Box-Muller noise sampling\n");
    std::printf("# (compute bound, 81%% of peak in the paper).\n");
    std::printf("# kernel backend: %s; pool threads: %zu\n",
                lazydp::kernelBackendName(lazydp::activeKernelBackend()),
                threads);
    std::printf("################################################\n");

    if (!sweep.empty()) {
        runThreadSweep(sweep);
        return 0;
    }

    g_pool = std::make_unique<lazydp::ThreadPool>(threads);
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    g_pool.reset();
    return 0;
}
