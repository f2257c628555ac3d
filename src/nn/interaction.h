/**
 * @file
 * DLRM dot-product feature interaction.
 *
 * Takes the bottom-MLP output plus the pooled embedding of every table
 * (all dimension d) and emits the bottom-MLP output concatenated with
 * all pairwise dot products between the (numTables + 1) feature vectors
 * (Naumov et al., 2019).
 */

#ifndef LAZYDP_NN_INTERACTION_H
#define LAZYDP_NN_INTERACTION_H

#include <vector>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace lazydp {

/**
 * Pairwise-dot feature interaction. Stateless: the forward's input cache
 * lives in a caller-owned tensor, so concurrent lot shards can each
 * interact with their own workspace.
 */
class DotInteraction
{
  public:
    /**
     * @param num_inputs number of d-dimensional feature vectors per
     *        example (1 bottom-MLP output + numTables pooled embeddings)
     * @param dim common feature dimension d
     */
    DotInteraction(std::size_t num_inputs, std::size_t dim);

    /** @return output width: d + num_inputs*(num_inputs-1)/2. */
    std::size_t outputDim() const;

    /**
     * Forward.
     *
     * @param inputs num_inputs tensors, each (batch x dim); inputs[0]
     *        must be the bottom-MLP output (it is passed through)
     * @param out (batch x outputDim()) result
     * @param cache the inputs, flattened to (batch x num_inputs*dim),
     *        for backwardFrom
     */
    void forwardInto(const std::vector<const Tensor *> &inputs,
                     Tensor &out, Tensor &cache, ExecContext &exec) const;

    /**
     * Backward.
     *
     * @param d_out (batch x outputDim()) upstream gradient
     * @param d_inputs num_inputs tensors (batch x dim), overwritten
     *        with the gradient wrt each input
     * @param cache the input cache of the matching forwardInto
     */
    void backwardFrom(const Tensor &d_out,
                      const std::vector<Tensor *> &d_inputs,
                      const Tensor &cache, ExecContext &exec) const;

    std::size_t numInputs() const { return numInputs_; }
    std::size_t dim() const { return dim_; }

  private:
    std::size_t numInputs_;
    std::size_t dim_;
};

} // namespace lazydp

#endif // LAZYDP_NN_INTERACTION_H
