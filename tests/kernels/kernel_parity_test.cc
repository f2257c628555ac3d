/**
 * @file
 * Kernel-parity property tests: every registered SIMD backend must
 * reproduce the scalar reference within the tolerances the registry
 * header promises, across randomized shapes, odd/remainder lengths,
 * zero-length calls, and unaligned slices.
 *
 * Tolerance taxonomy (see kernels/kernel_registry.h):
 *  - exact (bitwise): fill, add, scale, relu fwd/bwd, poolRows — no
 *    FMA opportunity, element-wise, same accumulation order — and
 *    gemm, whose every output is one fp32 FMA chain in ascending k.
 *  - ULP-tight: axpy/axpby/scatterAxpyRows — a single FMA contraction
 *    per element.
 *  - blocked-reduction: squaredNorm — double partials over
 *    kReduceBlock elements; only in-block reassociation differs.
 *  - Box-Muller: polynomial-vs-libm transcendentals, |diff| <~ 1e-5
 *    per N(0, sigma) sample.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "kernels/kernel_registry.h"
#include "kernels/kernels_internal.h"
#include "rng/philox.h"

namespace lazydp {
namespace {

/** Lengths hitting every vector-width remainder and block boundary. */
const std::size_t kLens[] = {0,  1,  2,  3,  5,   7,   8,   9,
                             15, 16, 17, 31, 32,  33,  63,  64,
                             65, 96, 100, 127, 128, 255, 257, 1000};

std::vector<float>
randomVec(std::mt19937 &rng, std::size_t n, float lo = -2.0f,
          float hi = 2.0f)
{
    std::uniform_real_distribution<float> dist(lo, hi);
    std::vector<float> v(n);
    for (auto &x : v)
        x = dist(rng);
    return v;
}

/** Backends to compare against the scalar reference. */
std::vector<const KernelTable *>
simdBackends()
{
    std::vector<const KernelTable *> out;
    for (const KernelBackend b : {KernelBackend::Avx2, KernelBackend::Avx512})
        if (const KernelTable *t = kernelTable(b))
            out.push_back(t);
    return out;
}

const KernelTable &
scalarRef()
{
    const KernelTable *s = kernelTable(KernelBackend::Scalar);
    EXPECT_NE(s, nullptr);
    return *s;
}

void
expectExact(const std::vector<float> &want, const std::vector<float> &got,
            const char *what, std::size_t n)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i], got[i])
            << what << " diverges bitwise at i=" << i << " n=" << n;
    }
}

void
expectUlpClose(const std::vector<float> &want,
               const std::vector<float> &got, const char *what,
               std::size_t n, double rel = 1e-6, double abs = 1e-6)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const double w = want[i];
        const double g = got[i];
        const double tol = abs + rel * std::abs(w);
        ASSERT_NEAR(w, g, tol)
            << what << " out of tolerance at i=" << i << " n=" << n;
    }
}

TEST(KernelRegistryTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernelBackendAvailable(KernelBackend::Scalar));
    EXPECT_NE(kernelTable(KernelBackend::Scalar), nullptr);
    // Auto always resolves to something runnable.
    EXPECT_NE(kernelTable(KernelBackend::Auto), nullptr);
    EXPECT_NE(kernels().backend, KernelBackend::Auto);
}

TEST(KernelRegistryTest, ParseAndNames)
{
    KernelBackend b = KernelBackend::Auto;
    EXPECT_TRUE(parseKernelBackend("scalar", b));
    EXPECT_EQ(b, KernelBackend::Scalar);
    EXPECT_TRUE(parseKernelBackend("avx2", b));
    EXPECT_EQ(b, KernelBackend::Avx2);
    EXPECT_TRUE(parseKernelBackend("avx512", b));
    EXPECT_EQ(b, KernelBackend::Avx512);
    EXPECT_TRUE(parseKernelBackend("auto", b));
    EXPECT_EQ(b, KernelBackend::Auto);
    b = KernelBackend::Scalar;
    EXPECT_FALSE(parseKernelBackend("sse9", b));
    EXPECT_FALSE(parseKernelBackend("", b));
    EXPECT_FALSE(parseKernelBackend("AVX2", b)); // case-sensitive
    EXPECT_EQ(b, KernelBackend::Scalar) << "failed parse must not write";

    EXPECT_STREQ(kernelBackendName(KernelBackend::Scalar), "scalar");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx2), "avx2");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx512), "avx512");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Auto), "auto");
}

TEST(KernelRegistryTest, SetBackendSwitchesDispatch)
{
    const KernelBackend before = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);
    EXPECT_EQ(activeKernelBackend(), KernelBackend::Scalar);
    EXPECT_EQ(&kernels(), kernelTable(KernelBackend::Scalar));
    // Requesting an unavailable backend falls back to scalar instead
    // of crashing (forced CI matrix legs on old hardware).
    for (const KernelBackend b :
         {KernelBackend::Avx2, KernelBackend::Avx512}) {
        setKernelBackend(b);
        if (kernelBackendAvailable(b))
            EXPECT_EQ(activeKernelBackend(), b);
        else
            EXPECT_EQ(activeKernelBackend(), KernelBackend::Scalar);
    }
    setKernelBackend(before);
    EXPECT_EQ(activeKernelBackend(), before);
}

/**
 * The selection a host without AVX-512 makes, shown on any host by
 * handing the registry's resolver that host's feature flags: an
 * explicit avx512 request warns and falls back to scalar (as avx2 does
 * on a host without AVX2), and auto settles on avx2.
 */
TEST(KernelRegistryTest, Avx512RequestWithoutAvx512FallsBackToScalar)
{
    using namespace kernels_detail;
    CpuFeatures no512;
    no512.avx2 = true;
    no512.fma = true;
    no512.avx512f = false;
    EXPECT_EQ(resolveTable(KernelBackend::Avx512, no512), nullptr);

    ::testing::internal::CaptureStderr();
    const KernelTable &t = selectTable(KernelBackend::Avx512, no512);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(t.backend, KernelBackend::Scalar);
    EXPECT_NE(err.find("'avx512' unavailable"), std::string::npos) << err;

    // Auto never warns; it takes the widest backend the flags allow.
    ::testing::internal::CaptureStderr();
    const KernelTable &autod = selectTable(KernelBackend::Auto, no512);
    EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
    if (kernelTable(KernelBackend::Avx2) != nullptr)
        EXPECT_EQ(autod.backend, KernelBackend::Avx2);
    else
        EXPECT_EQ(autod.backend, KernelBackend::Scalar);

    // No vector features at all: avx2 and avx512 both fall back.
    const CpuFeatures none;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(selectTable(KernelBackend::Avx2, none).backend,
              KernelBackend::Scalar);
    EXPECT_EQ(selectTable(KernelBackend::Avx512, none).backend,
              KernelBackend::Scalar);
    EXPECT_EQ(selectTable(KernelBackend::Auto, none).backend,
              KernelBackend::Scalar);
    ::testing::internal::GetCapturedStderr();
}

TEST(KernelParityTest, ElementwiseExact)
{
    std::mt19937 rng(0xE1);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t n : kLens) {
            const auto a = randomVec(rng, n);
            const auto b = randomVec(rng, n);

            std::vector<float> w(n, -1.0f), g(n, -1.0f);
            ref.fill(w.data(), n, 3.25f);
            kt->fill(g.data(), n, 3.25f);
            expectExact(w, g, "fill", n);

            ref.add(w.data(), a.data(), b.data(), n);
            kt->add(g.data(), a.data(), b.data(), n);
            expectExact(w, g, "add", n);

            w = a;
            g = a;
            ref.scale(w.data(), n, 1.7f);
            kt->scale(g.data(), n, 1.7f);
            expectExact(w, g, "scale", n);

            ref.reluForward(w.data(), a.data(), n);
            kt->reluForward(g.data(), a.data(), n);
            expectExact(w, g, "reluForward", n);

            ref.reluBackward(w.data(), a.data(), b.data(), n);
            kt->reluBackward(g.data(), a.data(), b.data(), n);
            expectExact(w, g, "reluBackward", n);
        }
    }
}

TEST(KernelParityTest, AxpyFamilyUlpClose)
{
    std::mt19937 rng(0xA2);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t n : kLens) {
            const auto x = randomVec(rng, n);
            const auto y0 = randomVec(rng, n);

            auto w = y0;
            auto g = y0;
            ref.axpy(w.data(), x.data(), n, -0.37f);
            kt->axpy(g.data(), x.data(), n, -0.37f);
            expectUlpClose(w, g, "axpy", n);

            w = y0;
            g = y0;
            ref.axpby(w.data(), x.data(), n, 0.81f, 0.995f);
            kt->axpby(g.data(), x.data(), n, 0.81f, 0.995f);
            expectUlpClose(w, g, "axpby", n);
        }
    }
}

TEST(KernelParityTest, BlockedReductionsMatch)
{
    std::mt19937 rng(0xD0);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t n : kLens) {
            const auto a = randomVec(rng, n);
            const double wn = ref.squaredNorm(a.data(), n);
            const double gn = kt->squaredNorm(a.data(), n);
            EXPECT_NEAR(wn, gn, 1e-10 * (1.0 + wn))
                << "squaredNorm n=" << n;
        }
    }
}

/**
 * The blocking contract itself: a reduction over [0, n) must equal the
 * in-order sum of its kReduceBlock-sized block partials EXACTLY, for
 * every backend. This is what makes results independent of how callers
 * shard loops (as long as shard boundaries are block-aligned) and is
 * the anchor of the cross-backend tolerance above.
 */
TEST(KernelParityTest, ReductionBlockingContract)
{
    std::mt19937 rng(0xB10C);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{640}, std::size_t{1000}}) {
        const auto a = randomVec(rng, n);
        std::vector<const KernelTable *> tables{&scalarRef()};
        for (const KernelTable *kt : simdBackends())
            tables.push_back(kt);
        for (const KernelTable *kt : tables) {
            const double whole = kt->squaredNorm(a.data(), n);
            double sum = 0.0;
            for (std::size_t base = 0; base < n; base += kReduceBlock) {
                const std::size_t len =
                    std::min(kReduceBlock, n - base);
                sum += kt->squaredNorm(a.data() + base, len);
            }
            EXPECT_EQ(whole, sum)
                << kt->name << " blocking broken at n=" << n;
        }
    }
}

/** One strided GEMM problem for the kernel entry. */
struct GemmCase
{
    std::size_t m, n, k;
    std::size_t a_rs, a_ks, b_ks, b_js, ldc;
    std::size_t off; //!< element offset of every operand (alignment)
};

/** Run @p gc through @p kt on fresh copies of the operands. */
std::vector<float>
runGemm(const KernelTable &kt, const GemmCase &gc,
        const std::vector<float> &a, const std::vector<float> &b,
        const std::vector<float> &c0, bool accumulate)
{
    std::vector<float> c = c0;
    kt.gemm(gc.m, gc.n, gc.k, a.data() + gc.off, gc.a_rs, gc.a_ks,
            b.data() + gc.off, gc.b_ks, gc.b_js, c.data() + gc.off,
            gc.ldc, accumulate);
    return c;
}

std::size_t
span(std::size_t rows, std::size_t rs, std::size_t cols, std::size_t cs)
{
    return rows == 0 || cols == 0 ? 0 : (rows - 1) * rs + (cols - 1) * cs + 1;
}

/**
 * The GEMM entry is exact across backends: every layout the library
 * uses (A*B, A^T*B, A*B^T), a general-stride fallback, unaligned
 * operands, k == 0, and sizes around every tile and k-block edge.
 */
TEST(KernelParityTest, GemmBitExactAcrossBackends)
{
    std::mt19937 rng(0x6E33);
    const KernelTable &ref = scalarRef();
    const std::size_t dims[] = {0,  1,  2,  3,  5,  6,  7,   8,   9,
                                15, 16, 17, 31, 32, 33, 127, 128, 257};
    const std::size_t nd = sizeof(dims) / sizeof(dims[0]);
    std::vector<GemmCase> cases;
    for (std::size_t i = 0; i < nd; ++i) {
        const std::size_t m = dims[i];
        const std::size_t n = dims[(i * 5 + 3) % nd];
        const std::size_t k = dims[(i * 7 + 11) % nd];
        const std::size_t off = i % 4;
        // A*B: A (m x k), B (k x n)
        cases.push_back({m, n, k, k, 1, n, 1, n, off});
        // A^T*B: A stored (k x m)
        cases.push_back({m, n, k, 1, m, n, 1, n + 3, off});
        // A*B^T: B stored (n x k)
        cases.push_back({m, n, k, k, 1, 1, k, n, off});
        // general strides: the vector backends' scalar fallback
        cases.push_back({m, n, k, k + 1, 1, 2 * n + 1, 2, n, off});
    }
    for (const KernelTable *kt : simdBackends()) {
        for (const GemmCase &gc : cases) {
            const auto a = randomVec(
                rng, gc.off + span(gc.m, gc.a_rs, gc.k, gc.a_ks));
            const auto b = randomVec(
                rng, gc.off + span(gc.k, gc.b_ks, gc.n, gc.b_js));
            const auto c0 =
                randomVec(rng, gc.off + span(gc.m, gc.ldc, gc.n, 1));
            for (const bool acc : {false, true}) {
                const auto w = runGemm(ref, gc, a, b, c0, acc);
                const auto g = runGemm(*kt, gc, a, b, c0, acc);
                ASSERT_TRUE(w.empty() ||
                            std::memcmp(w.data(), g.data(),
                                        w.size() * sizeof(float)) == 0)
                    << kt->name << " gemm m=" << gc.m << " n=" << gc.n
                    << " k=" << gc.k << " b_ks=" << gc.b_ks
                    << " b_js=" << gc.b_js << " acc=" << acc;
            }
        }
    }
}

/** The reference chain itself: C(i, j) = fma(...fma(a0, b0, c)...). */
TEST(KernelParityTest, GemmIsOneFmaChainInAscendingK)
{
    std::mt19937 rng(0xC4A1);
    const std::size_t m = 3, n = 19, k = 41;
    const auto a = randomVec(rng, m * k);
    const auto b = randomVec(rng, k * n);
    const auto c0 = randomVec(rng, m * n);
    std::vector<const KernelTable *> tables{&scalarRef()};
    for (const KernelTable *kt : simdBackends())
        tables.push_back(kt);
    for (const KernelTable *kt : tables) {
        for (const bool acc : {false, true}) {
            std::vector<float> c = c0;
            kt->gemm(m, n, k, a.data(), k, 1, b.data(), n, 1, c.data(), n,
                     acc);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    float s = acc ? c0[i * n + j] : 0.0f;
                    for (std::size_t p = 0; p < k; ++p)
                        s = std::fma(a[i * k + p], b[p * n + j], s);
                    ASSERT_EQ(s, c[i * n + j])
                        << kt->name << " i=" << i << " j=" << j;
                }
            }
        }
    }
}

TEST(KernelParityTest, PoolRowsExactAndScatterUlpClose)
{
    std::mt19937 rng(0x9001);
    const KernelTable &ref = scalarRef();
    const std::size_t rows = 37;
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t dim : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}, std::size_t{16},
                                      std::size_t{17}, std::size_t{128}}) {
            const auto table = randomVec(rng, rows * dim);
            for (const std::size_t count :
                 {std::size_t{0}, std::size_t{1}, std::size_t{3},
                  std::size_t{9}}) {
                // pooling: duplicates allowed
                std::vector<std::uint32_t> idx(count);
                for (auto &v : idx)
                    v = static_cast<std::uint32_t>(rng() % rows);
                std::vector<float> w(dim, -5.0f), g(dim, -7.0f);
                ref.poolRows(w.data(), table.data(), idx.data(), count,
                             dim);
                kt->poolRows(g.data(), table.data(), idx.data(), count,
                             dim);
                expectExact(w, g, "poolRows", dim * 100 + count);

                // scatter: unique rows required
                std::vector<std::uint32_t> uniq;
                for (std::uint32_t r = 0; r < count; ++r)
                    uniq.push_back(r * 3 % rows);
                std::sort(uniq.begin(), uniq.end());
                uniq.erase(std::unique(uniq.begin(), uniq.end()),
                           uniq.end());
                const auto vals = randomVec(rng, uniq.size() * dim);
                auto tw = table;
                auto tg = table;
                ref.scatterAxpyRows(tw.data(), uniq.data(), vals.data(),
                                    uniq.size(), dim, -0.25f);
                kt->scatterAxpyRows(tg.data(), uniq.data(), vals.data(),
                                    uniq.size(), dim, -0.25f);
                expectUlpClose(tw, tg, "scatterAxpyRows",
                               dim * 100 + count);
            }
        }
    }
}

TEST(KernelParityTest, StreamWithOpsClose)
{
    std::mt19937 rng(0x57);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t n : {std::size_t{0}, std::size_t{7},
                                    std::size_t{33}, std::size_t{200}}) {
            for (const int ops : {1, 2, 31, 101}) {
                const auto x = randomVec(rng, n, 0.5f, 1.5f);
                std::vector<float> w(n), g(n);
                EXPECT_EQ(ref.streamWithOps(w.data(), x.data(), n, ops),
                          n * static_cast<std::size_t>(ops));
                EXPECT_EQ(kt->streamWithOps(g.data(), x.data(), n, ops),
                          n * static_cast<std::size_t>(ops));
                expectUlpClose(w, g, "streamWithOps", n, 1e-5, 1e-6);
            }
        }
    }
}

TEST(KernelParityTest, GaussianFillKeyedCloseAndCounterStable)
{
    const Philox4x32 philox(0xFEEDFACE);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t dim :
             {std::size_t{0}, std::size_t{1}, std::size_t{3},
              std::size_t{4}, std::size_t{31}, std::size_t{32},
              std::size_t{33}, std::size_t{100}, std::size_t{512}}) {
            std::vector<float> w(dim, 0.5f), g(dim, 0.5f);
            ref.gaussianFillKeyed(philox, 77, 12345, w.data(), dim, 1.5f,
                                  2.0f, /*accumulate=*/false);
            kt->gaussianFillKeyed(philox, 77, 12345, g.data(), dim, 1.5f,
                                  2.0f, /*accumulate=*/false);
            for (std::size_t i = 0; i < dim; ++i) {
                // |diff| < 1e-5 per unit-sigma sample; sigma=1.5,
                // scale=2 -> 3x headroom plus margin.
                ASSERT_NEAR(w[i], g[i], 1e-4)
                    << "gaussian sample " << i << " dim=" << dim;
            }

            // accumulate path adds the same values
            std::vector<float> wa(dim, 1.0f), ga(dim, 1.0f);
            ref.gaussianFillKeyed(philox, 77, 12345, wa.data(), dim,
                                  1.5f, 2.0f, /*accumulate=*/true);
            kt->gaussianFillKeyed(philox, 77, 12345, ga.data(), dim,
                                  1.5f, 2.0f, /*accumulate=*/true);
            for (std::size_t i = 0; i < dim; ++i)
                ASSERT_NEAR(wa[i], ga[i], 1e-4);
        }

        // Counter-mapping stability: filling [0, 64) in one call equals
        // two keyed calls covering [0, 32) and [32, 64) — the property
        // the sharded parallel fills rely on. Exact per backend.
        const std::size_t dim = 64;
        std::vector<float> whole(dim), parts(dim);
        kt->gaussianFillKeyed(philox, 9, 100, whole.data(), dim, 1.0f,
                              1.0f, false);
        kt->gaussianFillKeyed(philox, 9, 100, parts.data(), 32, 1.0f,
                              1.0f, false);
        kt->gaussianFillKeyed(philox, 9, 100 + 32 / 4, parts.data() + 32,
                              32, 1.0f, 1.0f, false);
        for (std::size_t i = 0; i < dim; ++i)
            ASSERT_EQ(whole[i], parts[i]) << "counter mapping at " << i;
    }
}

TEST(KernelParityTest, UnalignedSlices)
{
    std::mt19937 rng(0xA117);
    const KernelTable &ref = scalarRef();
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t off :
             {std::size_t{1}, std::size_t{2}, std::size_t{3},
              std::size_t{5}, std::size_t{7}}) {
            const std::size_t n = 129;
            const auto x = randomVec(rng, n + off);
            auto yw = randomVec(rng, n + off);
            auto yg = yw;
            ref.axpy(yw.data() + off, x.data() + off, n, 0.5f);
            kt->axpy(yg.data() + off, x.data() + off, n, 0.5f);
            for (std::size_t i = 0; i < off; ++i)
                ASSERT_EQ(yw[i], yg[i]) << "prefix clobbered";
            expectUlpClose(yw, yg, "axpy unaligned", n);

            const double wn = ref.squaredNorm(x.data() + off, n);
            const double gn = kt->squaredNorm(x.data() + off, n);
            EXPECT_NEAR(wn, gn, 1e-9 * (1.0 + wn));

            std::vector<float> fw(n + off, 9.0f), fg(n + off, 9.0f);
            ref.fill(fw.data() + off, n, -2.0f);
            kt->fill(fg.data() + off, n, -2.0f);
            expectExact(fw, fg, "fill unaligned", n);
        }
    }
}

/** Randomized-shape fuzz across the FMA family and reductions. */
TEST(KernelParityTest, RandomizedShapes)
{
    std::mt19937 rng(0xF022);
    const KernelTable &ref = scalarRef();
    std::uniform_int_distribution<std::size_t> len_dist(0, 700);
    std::uniform_int_distribution<std::size_t> off_dist(0, 9);
    std::uniform_real_distribution<float> coef(-1.5f, 1.5f);
    for (const KernelTable *kt : simdBackends()) {
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t n = len_dist(rng);
            const std::size_t off = off_dist(rng);
            const float a = coef(rng);
            const float b = coef(rng);
            const auto x = randomVec(rng, n + off);
            auto yw = randomVec(rng, n + off);
            auto yg = yw;
            ref.axpby(yw.data() + off, x.data() + off, n, a, b);
            kt->axpby(yg.data() + off, x.data() + off, n, a, b);
            expectUlpClose(yw, yg, "axpby fuzz", n);

            const double wd =
                ref.squaredNorm(x.data() + off, n);
            const double gd = kt->squaredNorm(x.data() + off, n);
            EXPECT_NEAR(wd, gd, 1e-10 * (1.0 + wd)) << "fuzz trial "
                                                    << trial;
        }
    }
}

} // namespace
} // namespace lazydp
