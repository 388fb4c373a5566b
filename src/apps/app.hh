/**
 * @file
 * App: one of the six MediaBench-style mini applications.  Unlike the
 * isolated kernels, an app mixes vectorised kernel regions with the
 * scalar protocol/entropy/bookkeeping code that dominates once the DLP
 * has been mined -- the effect behind Figures 5 and 6.
 *
 * Correctness story: all flavours compute bit-identical outputs (the
 * packed emulation is exact), so tests assert cross-flavour checksum
 * equality plus semantic round-trip properties (decoder inverts encoder
 * within the codec's quantisation error).
 */

#ifndef VMMX_APPS_APP_HH
#define VMMX_APPS_APP_HH

#include <memory>
#include <string>
#include <vector>

#include "common/memimage.hh"
#include "common/rng.hh"
#include "trace/program.hh"

namespace vmmx
{

class App
{
  public:
    virtual ~App() = default;

    virtual std::string name() const = 0;

    /** Allocate and fill inputs (and, for decoders, synthesise the
     *  input bitstream by running the encoder functionally). */
    virtual void prepare(MemImage &mem, Rng &rng) = 0;

    /** Emit the full application for p.kind(). */
    virtual void emit(Program &p) = 0;

    /** FNV-1a hash over the output buffers (flavour-invariant). */
    virtual u64 checksum(const MemImage &mem) const = 0;

  protected:
    static u64 hashRange(const MemImage &mem, Addr a, size_t n, u64 h);
};

std::vector<std::string> appNames();
std::unique_ptr<App> makeApp(const std::string &name);

/** RAII marker for a vectorised kernel region inside an app. */
class VectorRegion
{
  public:
    explicit VectorRegion(Program &p) : p_(p) { p_.beginVectorRegion(); }
    ~VectorRegion() { p_.endVectorRegion(); }

  private:
    Program &p_;
};

} // namespace vmmx

#endif // VMMX_APPS_APP_HH
