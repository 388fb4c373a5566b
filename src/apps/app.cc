#include "apps/app.hh"

#include "apps/gsm.hh"
#include "apps/jpeg.hh"
#include "apps/mpeg2.hh"
#include "common/logging.hh"

namespace vmmx
{

std::vector<std::string>
appNames()
{
    return {"jpegenc", "jpegdec", "mpeg2enc", "mpeg2dec", "gsmenc",
            "gsmdec"};
}

std::unique_ptr<App>
makeApp(const std::string &name)
{
    if (name == "jpegenc")
        return std::make_unique<JpegEnc>();
    if (name == "jpegdec")
        return std::make_unique<JpegDec>();
    if (name == "mpeg2enc")
        return std::make_unique<Mpeg2Enc>();
    if (name == "mpeg2dec")
        return std::make_unique<Mpeg2Dec>();
    if (name == "gsmenc")
        return std::make_unique<GsmEnc>();
    if (name == "gsmdec")
        return std::make_unique<GsmDec>();
    fatal("unknown app '%s'", name.c_str());
}

} // namespace vmmx
