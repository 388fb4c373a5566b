/**
 * @file
 * ASCII table printer used by study reports (Study::writeReport) and
 * the tools and examples to render paper-style tables.
 */

#ifndef VMMX_COMMON_TABLE_HH
#define VMMX_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace vmmx
{

class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p prec decimals. */
    static std::string num(double v, int prec = 2);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace vmmx

#endif // VMMX_COMMON_TABLE_HH
