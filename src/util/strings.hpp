// Small string/formatting helpers shared by the report renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace streamlab {

/// printf-style double with fixed decimals ("12.34").
std::string fmt_double(double v, int decimals = 2);
/// Pads/truncates to a fixed width, left-aligned.
std::string pad_right(std::string_view s, std::size_t width);
/// Splits on a delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);
/// Renders a horizontal ASCII bar of proportional length (for bench output).
std::string ascii_bar(double fraction, std::size_t width = 40);

}  // namespace streamlab
