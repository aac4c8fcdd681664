#include "rlcore/types.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace swiftrl::rlcore {

namespace {

std::string
lower(std::string_view name)
{
    std::string s(name);
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

} // namespace

const char *
samplingName(Sampling s)
{
    switch (s) {
      case Sampling::Seq: return "SEQ";
      case Sampling::Ran: return "RAN";
      case Sampling::Str: return "STR";
    }
    SWIFTRL_PANIC("unknown sampling strategy");
}

std::optional<Sampling>
parseSampling(std::string_view name)
{
    const std::string n = lower(name);
    if (n == "seq")
        return Sampling::Seq;
    if (n == "ran")
        return Sampling::Ran;
    if (n == "str")
        return Sampling::Str;
    return std::nullopt;
}

const char *
numericFormatName(NumericFormat f)
{
    switch (f) {
      case NumericFormat::Fp32: return "FP32";
      case NumericFormat::Int32: return "INT32";
      case NumericFormat::Int8: return "INT8";
    }
    SWIFTRL_PANIC("unknown numeric format");
}

std::optional<NumericFormat>
parseNumericFormat(std::string_view name)
{
    const std::string n = lower(name);
    if (n == "fp32")
        return NumericFormat::Fp32;
    if (n == "int32")
        return NumericFormat::Int32;
    if (n == "int8")
        return NumericFormat::Int8;
    return std::nullopt;
}

} // namespace swiftrl::rlcore
