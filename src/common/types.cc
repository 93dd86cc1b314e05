#include "common/types.hh"

#include <limits>

namespace lf {

const char *
toString(DeliveryPath path)
{
    switch (path) {
      case DeliveryPath::MITE: return "MITE";
      case DeliveryPath::DSB: return "DSB";
      case DeliveryPath::LSD: return "LSD";
    }
    return "?";
}

int
clampToInt(double value)
{
    if (value >= static_cast<double>(std::numeric_limits<int>::max()))
        return std::numeric_limits<int>::max();
    if (!(value > static_cast<double>(std::numeric_limits<int>::min())))
        return std::numeric_limits<int>::min();
    return static_cast<int>(value);
}

} // namespace lf
