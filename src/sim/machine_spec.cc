#include "sim/machine_spec.h"

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "kernels/kernel_registry.h"
#include "rng/noise_provider.h"
#include "tensor/tensor.h"

namespace lazydp {

MachineSpec
MachineSpec::paperXeon()
{
    return MachineSpec{};
}

namespace {

MachineSpec
measureHost()
{
    MachineSpec spec;

    // Calibration wants the machine's full throughput, independent of
    // whatever --threads the caller picked for training: use a local
    // pool at hardware width.
    ThreadPool pool(hardwareThreads());
    ExecContext exec(&pool);
    const KernelTable &kt = kernels();

    // Working set large enough to defeat the LLC (~256 MB).
    const std::size_t n = 64u << 20;
    Tensor a(1, n);
    Tensor b(1, n);

    // Memory bandwidth: y += c*x streams 3 words per element
    // (read x, read y, write y).
    {
        WallTimer t;
        const int reps = 3;
        for (int r = 0; r < reps; ++r) {
            parallelForShards(
                exec, n, n / 64,
                [&](std::size_t, std::size_t lo, std::size_t hi) {
                    kt.axpy(a.data() + lo, b.data() + lo, hi - lo,
                            0.5f);
                });
        }
        const double secs = t.seconds();
        spec.memBandwidth =
            static_cast<double>(n) * sizeof(float) * 3.0 * reps / secs;
    }

    // Gaussian sampling rate with the production keyed kernel.
    {
        NoiseProvider np(0xCA11B, kt);
        const std::size_t rows = n / 128;
        WallTimer t;
        parallelFor(exec, rows, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r) {
                np.rowNoise(1, 0, r, 1.0f, 1.0f, a.data() + r * 128,
                            128, false);
            }
        });
        spec.gaussianRate = static_cast<double>(n) / t.seconds();
    }

    // Effective AVX peak: the Figure 6 kernel at large N.
    {
        const int n_ops = 100;
        const std::size_t m = 4u << 20;
        WallTimer t;
        // Per-shard flop counts merged after the barrier (integer sums,
        // but the ordered merge keeps the pattern uniform).
        std::vector<std::size_t> flops_per(16, 0);
        parallelForShards(
            exec, m, m / 16,
            [&](std::size_t s, std::size_t lo, std::size_t hi) {
                flops_per[s] = kt.streamWithOps(
                    a.data() + lo, b.data() + lo, hi - lo, n_ops);
            });
        std::size_t flops = 0;
        for (const std::size_t f : flops_per)
            flops += f;
        spec.avxPeakFlops = static_cast<double>(flops) / t.seconds();
    }

    // Power figures stay at the paper-class defaults; this host has no
    // power counters (pcm-power substitution, see README "Scale note").
    return spec;
}

} // namespace

const MachineSpec &
MachineSpec::calibratedHost()
{
    static const MachineSpec spec = measureHost();
    return spec;
}

} // namespace lazydp
