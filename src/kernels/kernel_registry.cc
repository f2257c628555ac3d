#include "kernels/kernel_registry.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "kernels/kernels_internal.h"

namespace lazydp {

namespace {

std::atomic<const KernelTable *> g_active{nullptr};

/** One-time startup selection from LAZYDP_KERNELS (default auto). */
const KernelTable *
initialTable()
{
    KernelBackend requested = KernelBackend::Auto;
    if (const char *env = std::getenv("LAZYDP_KERNELS")) {
        if (!parseKernelBackend(env, requested)) {
            warn("LAZYDP_KERNELS='", env,
                 "' is not scalar|avx2|avx512|auto; using auto");
            requested = KernelBackend::Auto;
        }
    }
    return &kernels_detail::selectTable(requested, cpuFeatures());
}

} // namespace

namespace kernels_detail {

const KernelTable *
resolveTable(KernelBackend b, const CpuFeatures &cpu)
{
    switch (b) {
      case KernelBackend::Avx512:
        return avx512Table(cpu); // may be null: selectTable falls back
      case KernelBackend::Avx2:
        return avx2Table(cpu);
      case KernelBackend::Scalar:
        return &scalarTable();
      case KernelBackend::Auto:
      default:
        if (const KernelTable *t = avx512Table(cpu))
            return t;
        if (const KernelTable *t = avx2Table(cpu))
            return t;
        return &scalarTable();
    }
}

const KernelTable &
selectTable(KernelBackend b, const CpuFeatures &cpu)
{
    if (const KernelTable *t = resolveTable(b, cpu))
        return *t;
    warn("kernel backend '", kernelBackendName(b),
         "' unavailable on this host; falling back to scalar");
    return scalarTable();
}

} // namespace kernels_detail

bool
parseKernelBackend(const std::string &s, KernelBackend &out)
{
    if (s == "auto") {
        out = KernelBackend::Auto;
        return true;
    }
    if (s == "scalar") {
        out = KernelBackend::Scalar;
        return true;
    }
    if (s == "avx2") {
        out = KernelBackend::Avx2;
        return true;
    }
    if (s == "avx512") {
        out = KernelBackend::Avx512;
        return true;
    }
    return false;
}

const char *
kernelBackendName(KernelBackend b)
{
    switch (b) {
      case KernelBackend::Scalar:
        return "scalar";
      case KernelBackend::Avx2:
        return "avx2";
      case KernelBackend::Avx512:
        return "avx512";
      case KernelBackend::Auto:
      default:
        return "auto";
    }
}

bool
kernelBackendAvailable(KernelBackend b)
{
    return kernelTable(b) != nullptr;
}

void
setKernelBackend(KernelBackend b)
{
    g_active.store(&kernels_detail::selectTable(b, cpuFeatures()),
                   std::memory_order_release);
}

KernelBackend
activeKernelBackend()
{
    return kernels().backend;
}

const KernelTable &
kernels()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        static std::once_flag once;
        std::call_once(once, [] {
            const KernelTable *expected = nullptr;
            g_active.compare_exchange_strong(expected, initialTable(),
                                             std::memory_order_acq_rel);
        });
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

const KernelTable *
kernelTable(KernelBackend b)
{
    return kernels_detail::resolveTable(b, cpuFeatures());
}

} // namespace lazydp
