/**
 * @file
 * Per-primitive kernel benchmark across backends (paper Sections
 * 4.2/6).
 *
 * The paper reports its tuned noise + update stage is 8.2x faster than
 * stock PyTorch operators; this bench quantifies the same effect for
 * every primitive in the runtime kernel registry: every available
 * backend (scalar, avx2, avx512) runs the SAME registry entry points
 * the training loop dispatches through, so a speedup measured here is
 * the speedup --kernels=... buys the hot loops. The GEMM legs run the
 * three MLP GEMMs (forward A*B^T, input-gradient A*B, weight-gradient
 * A^T*B) over every layer of the mlperf-bench model, at M=512 rows
 * (one lot shard) and M=4 (one serving micro-batch), single-threaded,
 * and report GFLOP/s. The stock-library noise baseline (mt19937 +
 * std::normal_distribution) is kept for the paper's ablation anchor.
 *
 * Emits BENCH_kernels.json (see --out) with seconds-per-call per
 * backend and the best-SIMD-over-scalar speedup per primitive; the CI
 * smoke step runs it at reduced --seconds to catch dispatch
 * regressions.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/cpu_features.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "kernels/kernel_registry.h"
#include "nn/model_config.h"
#include "rng/philox.h"
#include "tensor/aligned_buffer.h"

using namespace lazydp;

namespace {

/** The backends a row reports, in column order. */
const KernelBackend kBackends[] = {KernelBackend::Scalar,
                                   KernelBackend::Avx2,
                                   KernelBackend::Avx512};
constexpr std::size_t kNumBackends = 3;

/** One primitive's measurement across backends. */
struct PrimResult
{
    std::string name;
    double sec[kNumBackends] = {}; //!< per call; 0 = backend unavailable
    double unit = 0.0;             //!< work per call (elements or flop)
    const char *unitName = "elems";

    /** @return fastest SIMD backend's speedup over scalar (0: none). */
    double
    speedup() const
    {
        double best = 0.0;
        for (std::size_t b = 1; b < kNumBackends; ++b)
            if (sec[b] > 0.0 && (best == 0.0 || sec[b] < best))
                best = sec[b];
        return best > 0.0 ? sec[0] / best : 0.0;
    }

    /** @return work per second on backend @p b (0: unavailable). */
    double
    rate(std::size_t b) const
    {
        return sec[b] > 0.0 ? unit / sec[b] : 0.0;
    }
};

/** Repeat fn until `min_seconds` elapsed; @return seconds per call. */
template <typename Fn>
double
timeIt(double min_seconds, Fn &&fn)
{
    fn(); // warm the caches / page in the buffers
    std::size_t calls = 0;
    WallTimer t;
    do {
        fn();
        ++calls;
    } while (t.seconds() < min_seconds);
    return t.seconds() / static_cast<double>(calls);
}

/** Measure one primitive under both backends. */
template <typename Fn>
PrimResult
measure(const std::string &name, double min_seconds, double unit,
        const char *unit_name, Fn &&run)
{
    PrimResult r;
    r.name = name;
    r.unit = unit;
    r.unitName = unit_name;
    for (std::size_t b = 0; b < kNumBackends; ++b) {
        if (const KernelTable *kt = kernelTable(kBackends[b]))
            r.sec[b] = timeIt(min_seconds, [&] { run(*kt); });
    }
    return r;
}

/** @return the "model name" line of /proc/cpuinfo ("unknown" if none). */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** @return the vector ISA flags the kernel registry selects on. */
std::string
isaFlags()
{
    const CpuFeatures &f = cpuFeatures();
    std::string out;
    for (const auto &[on, name] :
         {std::pair{f.avx2, "avx2"}, std::pair{f.fma, "fma"},
          std::pair{f.avx512f, "avx512f"}}) {
        if (on)
            out += (out.empty() ? "" : " ") + std::string(name);
    }
    return out.empty() ? "none" : out;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, {"seconds", "out", "help"});
    if (args.has("help")) {
        std::printf("opt_kernels [--seconds=F (min time per "
                    "measurement)] [--out=BENCH_kernels.json]\n");
        return 0;
    }
    const double min_seconds = args.getDouble("seconds", 0.2);
    const std::string out_path =
        args.getString("out", "BENCH_kernels.json");

    std::printf("\n################################################\n");
    std::printf("# Kernel-registry ablation (paper Sections 4.2/6):\n");
    std::printf("# every registry primitive on every backend, plus the\n");
    std::printf("# naive stdlib noise baseline. The same entry points\n");
    std::printf("# the training loop dispatches through.\n");
    for (std::size_t b = 1; b < kNumBackends; ++b) {
        std::printf("# %s backend: %s\n", kernelBackendName(kBackends[b]),
                    kernelBackendAvailable(kBackends[b])
                        ? "available"
                        : "UNAVAILABLE on this host/build");
    }
    std::printf("################################################\n");

    std::vector<PrimResult> results;

    // --- streaming update (axpy): the N=2 memory-bound model update
    {
        const std::size_t n = std::size_t{1} << 22;
        static AlignedBuffer<float> y(n), x(n);
        for (std::size_t i = 0; i < n; ++i) {
            y[i] = 1.0f;
            x[i] = 0.5f;
        }
        results.push_back(measure(
            "axpy_update", min_seconds, static_cast<double>(n), "elems",
            [&](const KernelTable &kt) {
                kt.axpy(y.data(), x.data(), n, -1e-7f);
            }));
    }

    // --- fused square-accumulate: per-example gradient norms
    {
        const std::size_t n = std::size_t{1} << 22;
        static AlignedBuffer<float> x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = 0.001f * static_cast<float>(i % 997);
        static volatile double sink = 0.0;
        results.push_back(measure(
            "norms_sq", min_seconds, static_cast<double>(n), "elems",
            [&](const KernelTable &kt) {
                sink = kt.squaredNorm(x.data(), n);
            }));
    }

    // --- MLP GEMMs: every mlperf-bench layer, the three GEMMs of
    // matmul.cc with the strides it passes, at one lot shard (M=512)
    // and one serving micro-batch (M=4).
    {
        const ModelConfig cfg = ModelConfig::mlperfBench(1);
        const std::vector<std::size_t> top = cfg.fullTopDims();
        std::vector<std::pair<std::size_t, std::size_t>> layers; // in,out
        for (const auto *dims : {&cfg.bottomDims, &top}) {
            for (std::size_t l = 0; l + 1 < dims->size(); ++l)
                layers.emplace_back((*dims)[l], (*dims)[l + 1]);
        }
        std::mt19937 rng(7);
        std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
        const auto randomBuf = [&](std::size_t n) {
            std::vector<float> v(n);
            for (auto &x : v)
                x = dist(rng);
            return v;
        };
        for (const std::size_t m : {std::size_t{512}, std::size_t{4}}) {
            struct Layer
            {
                std::size_t in, out;
                std::vector<float> x, w, dy, y, dx, dw;
            };
            std::vector<Layer> ls;
            double flop = 0.0;
            for (const auto &[in, out] : layers) {
                ls.push_back({in, out, randomBuf(m * in),
                              randomBuf(out * in), randomBuf(m * out),
                              std::vector<float>(m * out),
                              std::vector<float>(m * in),
                              std::vector<float>(out * in)});
                flop += 2.0 * static_cast<double>(m * in * out);
            }
            const std::string suffix = "_m" + std::to_string(m);
            results.push_back(measure(
                "gemm_abt" + suffix, min_seconds, flop, "flop",
                [&](const KernelTable &kt) {
                    for (auto &l : ls) // y = x W^T
                        kt.gemm(m, l.out, l.in, l.x.data(), l.in, 1,
                                l.w.data(), 1, l.in, l.y.data(), l.out,
                                false);
                }));
            results.push_back(measure(
                "gemm_ab" + suffix, min_seconds, flop, "flop",
                [&](const KernelTable &kt) {
                    for (auto &l : ls) // dx = dy W
                        kt.gemm(m, l.in, l.out, l.dy.data(), l.out, 1,
                                l.w.data(), l.in, 1, l.dx.data(), l.in,
                                false);
                }));
            results.push_back(measure(
                "gemm_atb" + suffix, min_seconds, flop, "flop",
                [&](const KernelTable &kt) {
                    for (auto &l : ls) // dW = dy^T x
                        kt.gemm(l.out, l.in, m, l.dy.data(), 1, l.out,
                                l.x.data(), l.in, 1, l.dw.data(), l.in,
                                false);
                }));
        }
    }

    // --- keyed Box-Muller fill: the compute-bound noise sampling
    {
        const std::size_t n = std::size_t{1} << 20;
        static AlignedBuffer<float> buf(n);
        const Philox4x32 philox(42);
        results.push_back(measure(
            "gaussian_fill", min_seconds, static_cast<double>(n),
            "samples", [&](const KernelTable &kt) {
                kt.gaussianFillKeyed(philox, 1, 0, buf.data(), n, 1.0f,
                                     1.0f, false);
            }));
    }

    // --- embedding pooling: DLRM sparse forward
    {
        const std::size_t rows = std::size_t{1} << 15, dim = 128;
        const std::size_t pooling = 64, batch = 512;
        static AlignedBuffer<float> table(rows * dim), out(batch * dim);
        for (std::size_t i = 0; i < rows * dim; ++i)
            table[i] = 0.25f;
        std::vector<std::uint32_t> idx(batch * pooling);
        std::mt19937 rng(11);
        for (auto &v : idx)
            v = static_cast<std::uint32_t>(rng() % rows);
        results.push_back(measure(
            "embed_pool", min_seconds,
            static_cast<double>(batch * pooling * dim), "elems",
            [&](const KernelTable &kt) {
                for (std::size_t e = 0; e < batch; ++e)
                    kt.poolRows(out.data() + e * dim, table.data(),
                                idx.data() + e * pooling, pooling, dim);
            }));
    }

    // --- sparse scatter-update: LazyDP merged row update
    {
        const std::size_t rows = std::size_t{1} << 15, dim = 128;
        const std::size_t touched = 8192;
        static AlignedBuffer<float> table(rows * dim),
            vals(touched * dim);
        for (std::size_t i = 0; i < touched * dim; ++i)
            vals[i] = 0.125f;
        std::vector<std::uint32_t> idx(touched);
        for (std::size_t i = 0; i < touched; ++i)
            idx[i] = static_cast<std::uint32_t>(i * (rows / touched));
        results.push_back(measure(
            "sparse_scatter", min_seconds,
            static_cast<double>(touched * dim), "elems",
            [&](const KernelTable &kt) {
                kt.scatterAxpyRows(table.data(), idx.data(), vals.data(),
                                   touched, dim, -1e-7f);
            }));
    }

    // --- stock-library noise baseline (the paper's 8.2x anchor)
    double naive_sec = 0.0;
    {
        const std::size_t n = std::size_t{1} << 20;
        static AlignedBuffer<float> buf(n);
        std::mt19937 rng(42);
        std::normal_distribution<float> dist(0.0f, 1.0f);
        naive_sec = timeIt(min_seconds, [&] {
            for (std::size_t i = 0; i < n; ++i)
                buf[i] = dist(rng);
        });
    }

    TablePrinter table("Kernel registry: every backend");
    table.setHeader({"primitive", "scalar s/call", "avx2 s/call",
                     "avx512 s/call", "best speedup", "GFLOP/s s/a2/a512"});
    const auto secCell = [](double sec) {
        return sec > 0.0 ? TablePrinter::num(sec, 6) : std::string("n/a");
    };
    for (const auto &r : results) {
        std::string gflops = "-";
        if (std::string(r.unitName) == "flop") {
            gflops.clear();
            for (std::size_t b = 0; b < kNumBackends; ++b) {
                gflops += (b ? "/" : "") +
                          (r.sec[b] > 0.0
                               ? TablePrinter::num(r.rate(b) * 1e-9, 1)
                               : std::string("n/a"));
            }
        }
        table.addRow({r.name, secCell(r.sec[0]), secCell(r.sec[1]),
                      secCell(r.sec[2]),
                      r.speedup() > 0.0
                          ? TablePrinter::num(r.speedup(), 2) + "x"
                          : std::string("n/a"),
                      gflops});
    }
    table.addRow({"noise_naive_stdlib", TablePrinter::num(naive_sec, 6),
                  "n/a", "n/a", "n/a", "-"});
    table.print(std::cout);

    std::ofstream os(out_path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    os << "{\n  \"bench\": \"opt_kernels\",\n";
    for (std::size_t b = 1; b < kNumBackends; ++b) {
        os << "  \"" << kernelBackendName(kBackends[b])
           << "_available\": "
           << (kernelBackendAvailable(kBackends[b]) ? "true" : "false")
           << ",\n";
    }
    os << "  \"host\": { \"cpu_model\": \"" << cpuModel()
       << "\", \"nproc\": " << hardwareThreads() << ", \"isa\": \""
       << isaFlags() << "\" },\n";
    os << "  \"min_seconds_per_measurement\": " << min_seconds << ",\n";
    os << "  \"primitives\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        os << "    \"" << r.name << "\": {";
        for (std::size_t b = 0; b < kNumBackends; ++b) {
            os << " \"" << kernelBackendName(kBackends[b])
               << "_sec_per_call\": " << r.sec[b] << ",";
        }
        if (std::string(r.unitName) == "flop") {
            for (std::size_t b = 0; b < kNumBackends; ++b) {
                os << " \"" << kernelBackendName(kBackends[b])
                   << "_gflops\": " << r.rate(b) * 1e-9 << ",";
            }
        }
        os << " \"speedup\": " << r.speedup() << ", \"work_per_call\": "
           << r.unit << ", \"work_unit\": \"" << r.unitName << "\" }"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  },\n";
    os << "  \"noise_naive_stdlib_sec_per_call\": " << naive_sec
       << ",\n";
    os << "  \"comment\": \"same registry entry points the training "
          "loop dispatches through, single-threaded, on the host above ("
       << cpuModel() << ", nproc " << hardwareThreads() << ", "
       << isaFlags()
       << "); speedup is what the fastest SIMD backend buys each hot "
          "loop over scalar\"\n";
    os << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
