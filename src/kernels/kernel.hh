/**
 * @file
 * Kernel: one Table II media kernel packaged for isolated evaluation
 * (Figure 4) and correctness testing.
 *
 * Each kernel owns its input/output buffers inside a MemImage, provides
 * a golden (plain C++) reference writing to a shadow buffer, and emits a
 * traced version for any Program flavour.  The vectorised-region markers
 * are applied here so Figure 6's scalar/vector cycle attribution works
 * uniformly.
 */

#ifndef VMMX_KERNELS_KERNEL_HH
#define VMMX_KERNELS_KERNEL_HH

#include <memory>
#include <string>
#include <vector>

#include "common/memimage.hh"
#include "common/rng.hh"
#include "trace/mmx.hh"
#include "trace/program.hh"
#include "trace/vmmx.hh"

namespace vmmx
{

class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** Figure-4 name ("idct", "motion1", ...). */
    virtual std::string name() const = 0;

    /** Allocate and fill inputs and outputs; deterministic via @p rng. */
    virtual void prepare(MemImage &mem, Rng &rng) = 0;

    /** Compute the expected outputs into the shadow buffers. */
    virtual void golden(MemImage &mem) = 0;

    /** Emit the scalar-ISA version (no packed instructions). */
    virtual void emitScalar(Program &p) = 0;

    /** Emit the version for p.kind(), wrapped in a vector region. */
    void emit(Program &p);

    /** A produced/expected buffer pair to verify. */
    struct Output
    {
        Addr actual;
        Addr expected;
        u32 bytes;
        std::string what;
    };

    virtual std::vector<Output> outputs() const = 0;

  protected:
    virtual void emitMmx(Program &p, Mmx &m) = 0;
    virtual void emitVmmx(Program &p, Vmmx &v) = 0;
};

/** All Table II kernels in Figure 4/7 order. */
std::vector<std::unique_ptr<Kernel>> makeAllKernels();

/** Factory by Figure-4 name; fatal on unknown names. */
std::unique_ptr<Kernel> makeKernel(const std::string &name);

/** Names in Figure 4 order. */
std::vector<std::string> kernelNames();

} // namespace vmmx

#endif // VMMX_KERNELS_KERNEL_HH
