/**
 * @file
 * Kernel-parity property tests: every registered SIMD backend must
 * reproduce the scalar reference within the tolerances the registry
 * header promises, across randomized shapes, odd/remainder lengths,
 * zero-length calls, and unaligned slices.
 *
 * Tolerance taxonomy (see kernels/kernel_registry.h):
 *  - exact (bitwise): fill, add, scale, relu fwd/bwd, poolRows — no
 *    FMA opportunity, element-wise, same accumulation order.
 *  - ULP-tight: axpy/axpby/scatterAxpyRows/gemvDotRow — a single FMA
 *    contraction per element (or a double-blocked sum cast to float).
 *  - blocked-reduction: dot/squaredNorm — double partials over
 *    kReduceBlock elements; only in-block reassociation differs.
 *  - Box-Muller: polynomial-vs-libm transcendentals, |diff| <~ 1e-5
 *    per N(0, sigma) sample.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "kernels/kernel_registry.h"
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
    if (const KernelTable *avx2 = kernelTable(KernelBackend::Avx2))
        out.push_back(avx2);
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
    EXPECT_TRUE(parseKernelBackend("auto", b));
    EXPECT_EQ(b, KernelBackend::Auto);
    b = KernelBackend::Scalar;
    EXPECT_FALSE(parseKernelBackend("sse9", b));
    EXPECT_FALSE(parseKernelBackend("", b));
    EXPECT_FALSE(parseKernelBackend("AVX2", b)); // case-sensitive
    EXPECT_EQ(b, KernelBackend::Scalar) << "failed parse must not write";

    EXPECT_STREQ(kernelBackendName(KernelBackend::Scalar), "scalar");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx2), "avx2");
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
    setKernelBackend(KernelBackend::Avx2);
    if (kernelBackendAvailable(KernelBackend::Avx2))
        EXPECT_EQ(activeKernelBackend(), KernelBackend::Avx2);
    else
        EXPECT_EQ(activeKernelBackend(), KernelBackend::Scalar);
    setKernelBackend(before);
    EXPECT_EQ(activeKernelBackend(), before);
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
            const auto b = randomVec(rng, n);
            const double wd = ref.dot(a.data(), b.data(), n);
            const double gd = kt->dot(a.data(), b.data(), n);
            EXPECT_NEAR(wd, gd, 1e-10 * (1.0 + std::abs(wd)))
                << "dot n=" << n;
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
        const auto b = randomVec(rng, n);
        std::vector<const KernelTable *> tables{&scalarRef()};
        for (const KernelTable *kt : simdBackends())
            tables.push_back(kt);
        for (const KernelTable *kt : tables) {
            const double whole = kt->dot(a.data(), b.data(), n);
            double sum = 0.0;
            for (std::size_t base = 0; base < n; base += kReduceBlock) {
                const std::size_t len =
                    std::min(kReduceBlock, n - base);
                sum += kt->dot(a.data() + base, b.data() + base, len);
            }
            EXPECT_EQ(whole, sum)
                << kt->name << " blocking broken at n=" << n;
        }
    }
}

TEST(KernelParityTest, GemvDotRowMatchesScalar)
{
    std::mt19937 rng(0x6E);
    const KernelTable &ref = scalarRef();
    const std::size_t ks[] = {0, 1, 3, 8, 17, 64, 65, 130};
    const std::size_t ns[] = {1, 2, 3, 5, 8};
    for (const KernelTable *kt : simdBackends()) {
        for (const std::size_t k : ks) {
            for (const std::size_t n : ns) {
                const auto arow = randomVec(rng, k);
                const auto b = randomVec(rng, n * k);
                for (const bool accumulate : {false, true}) {
                    auto w = randomVec(rng, n);
                    auto g = w;
                    ref.gemvDotRow(arow.data(), b.data(), w.data(), n, k,
                                   accumulate);
                    kt->gemvDotRow(arow.data(), b.data(), g.data(), n, k,
                                   accumulate);
                    expectUlpClose(w, g, "gemvDotRow", n * 1000 + k);
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

            const double wd = ref.dot(x.data() + off, yw.data() + off, n);
            const double gd = kt->dot(x.data() + off, yg.data() + off, n);
            EXPECT_NEAR(wd, gd, 1e-9 * (1.0 + std::abs(wd)));

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
