#include "dp/clipping.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

void
clipScales(const std::vector<double> &norm_sq, float clip_norm,
           std::vector<float> &out)
{
    LAZYDP_ASSERT(clip_norm > 0.0f, "clip norm must be positive");
    out.resize(norm_sq.size());
    const double c = clip_norm;
    for (std::size_t e = 0; e < norm_sq.size(); ++e) {
        const double norm = std::sqrt(norm_sq[e]);
        out[e] = norm > c ? static_cast<float>(c / norm) : 1.0f;
    }
}

void
scaleRows(Tensor &t, const std::vector<float> &scales)
{
    LAZYDP_ASSERT(t.rows() == scales.size(), "scale count != rows");
    const KernelTable &kt = kernels();
    for (std::size_t r = 0; r < t.rows(); ++r)
        kt.scale(t.data() + r * t.cols(), t.cols(), scales[r]);
}

void
reduceScaledRows(const Tensor &rows, const std::vector<float> &scales,
                 Tensor &out, ExecContext &exec)
{
    const std::size_t batch = rows.rows();
    const std::size_t params = rows.cols();
    LAZYDP_ASSERT(scales.size() == batch, "scale count != rows");
    LAZYDP_ASSERT(out.size() == params, "output size != param count");
    out.zero();
    const KernelTable &kt = kernels();
    // Fixed 16K-parameter shards: each output element's sum runs over e
    // in order inside one shard, so the reduction is deterministic at
    // any thread count.
    parallelForShards(
        exec, params, 1u << 14,
        [&](std::size_t, std::size_t lo, std::size_t hi) {
            const std::size_t len = hi - lo;
            float *dst = out.data() + lo;
            for (std::size_t e = 0; e < batch; ++e) {
                kt.axpy(dst, rows.data() + e * params + lo, len,
                        scales[e]);
            }
        });
}

} // namespace lazydp
