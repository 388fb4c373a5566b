// vmmx_lint-fixture: rule=lane-alignment path=src/sim/sim_batch.hh
// A SimBatch lane array declared as a plain std::vector: malloc aligns
// it to 16 bytes, so most 512-bit row loads straddle two cache lines.
#include <vector>

#include "common/types.hh"

namespace vmmx
{

struct SimBatch
{
    std::vector<u64> stallLsq; ///< per lane
};

} // namespace vmmx
