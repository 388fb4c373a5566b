/**
 * @file
 * gshare conditional-branch predictor: a table of 2-bit saturating
 * counters indexed by (static site hash XOR global history).
 */

#ifndef VMMX_SIM_BPRED_HH
#define VMMX_SIM_BPRED_HH

#include <vector>

#include "common/types.hh"

namespace vmmx
{

class BranchPredictor
{
  public:
    explicit BranchPredictor(unsigned entries);

    /**
     * Predict and update for one dynamic branch.
     * @param staticId static branch site
     * @param taken actual outcome from the trace
     * @return true when the prediction matched the outcome.
     */
    bool predict(u32 staticId, bool taken);

    void reset();

  private:
    std::vector<u8> table_;
    u32 mask_;
    u32 history_ = 0;
};

} // namespace vmmx

#endif // VMMX_SIM_BPRED_HH
