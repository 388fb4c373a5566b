// vmmx_lint-fixture: rule=env-discipline path=src/common/config.cc
// A second number parser: strtoll with base 0 reads "010" as octal 8
// and "0x8" as hex, and the caller narrows the result unchecked.
#include <cstdlib>
#include <string>

#include "common/types.hh"

namespace vmmx
{

unsigned
knobValue(const std::string &text)
{
    return unsigned(std::strtoll(text.c_str(), nullptr, 0));
}

} // namespace vmmx
