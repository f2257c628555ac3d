#include "avx_math_probe.h"

#if defined(__AVX2__)

#include "rng/avx_math.h"

namespace lazydp {
namespace avx_probe {

bool
compiled()
{
    return true;
}

void
log8(const float *in, float *out)
{
    _mm256_storeu_ps(out, avxm::logPs(_mm256_loadu_ps(in)));
}

void
sinCos2Pi8(const float *u, float *s, float *c)
{
    __m256 vs, vc;
    avxm::sinCos2PiPs(_mm256_loadu_ps(u), vs, vc);
    _mm256_storeu_ps(s, vs);
    _mm256_storeu_ps(c, vc);
}

} // namespace avx_probe
} // namespace lazydp

#else // compiler without -mavx2: nothing to probe

namespace lazydp {
namespace avx_probe {

bool
compiled()
{
    return false;
}

void
log8(const float *, float *)
{
}

void
sinCos2Pi8(const float *, float *, float *)
{
}

} // namespace avx_probe
} // namespace lazydp

#endif
