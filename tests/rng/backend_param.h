/**
 * @file Fixture for rng tests that run once per kernel backend.
 *
 * Each test gets the backend's table from kernelTable() and hands it to
 * the sampler under test, so both Box-Muller fills are checked without
 * flipping the process-wide selection. Backends this host cannot run
 * are skipped.
 */

#ifndef LAZYDP_TESTS_RNG_BACKEND_PARAM_H
#define LAZYDP_TESTS_RNG_BACKEND_PARAM_H

#include <gtest/gtest.h>

#include <string>

#include "kernels/kernel_registry.h"

namespace lazydp {

class KernelBackendTest : public ::testing::TestWithParam<KernelBackend>
{
  protected:
    void SetUp() override
    {
        if (kernelTable(GetParam()) == nullptr) {
            GTEST_SKIP() << kernelBackendName(GetParam())
                         << " unavailable on this host";
        }
    }

    /** @return the table of the backend under test. */
    const KernelTable &table() const { return *kernelTable(GetParam()); }
};

/** Every concrete backend, for INSTANTIATE_TEST_SUITE_P. */
inline auto
allKernelBackends()
{
    return ::testing::Values(KernelBackend::Scalar, KernelBackend::Avx2,
                             KernelBackend::Avx512);
}

/** Test-name suffix: the backend's canonical name. */
inline std::string
kernelBackendParamName(const ::testing::TestParamInfo<KernelBackend> &info)
{
    return kernelBackendName(info.param);
}

} // namespace lazydp

#endif // LAZYDP_TESTS_RNG_BACKEND_PARAM_H
