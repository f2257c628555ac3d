/**
 * @file
 * Plain-array entry points to the AVX2 transcendental kernels.
 *
 * avx_math_probe.cc is compiled with `-mavx2 -mfma` in every build
 * configuration (see CMakeLists.txt), like rng/avx_math.cc itself, so
 * the accuracy tests in avx_math_test.cc run in portable builds too.
 * The test TU keeps the baseline flags: no AVX2 code is inlined into
 * it, and it calls these only after checking at runtime that the host
 * can run the AVX2 backend.
 */

#ifndef LAZYDP_TESTS_RNG_AVX_MATH_PROBE_H
#define LAZYDP_TESTS_RNG_AVX_MATH_PROBE_H

namespace lazydp {
namespace avx_probe {

/** @return false when the compiler could not build the AVX2 probe. */
bool compiled();

/** out[i] = avxm::logPs(in)[i] for 8 lanes. */
void log8(const float *in, float *out);

/** s[i], c[i] = avxm::sinCos2PiPs(u)[i] for 8 lanes. */
void sinCos2Pi8(const float *u, float *s, float *c);

} // namespace avx_probe
} // namespace lazydp

#endif // LAZYDP_TESTS_RNG_AVX_MATH_PROBE_H
