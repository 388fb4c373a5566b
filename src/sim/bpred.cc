#include "sim/bpred.hh"

#include "common/logging.hh"

namespace vmmx
{

BranchPredictor::BranchPredictor(unsigned entries)
{
    vmmx_assert(entries && (entries & (entries - 1)) == 0,
                "predictor entries must be a power of two");
    table_.assign(entries, 2); // weakly taken
    mask_ = entries - 1;
}

bool
BranchPredictor::predict(u32 staticId, bool taken)
{
    // Knuth multiplicative hash spreads the dense site ids.
    u32 pc = staticId * 2654435761u;
    u32 idx = (pc ^ history_) & mask_;
    u8 &ctr = table_[idx];
    bool pred = ctr >= 2;

    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;

    history_ = ((history_ << 1) | u32(taken)) & mask_;

    return pred == taken;
}

void
BranchPredictor::reset()
{
    for (auto &c : table_)
        c = 2;
    history_ = 0;
}

} // namespace vmmx
