// Whole-value number parsing for the command-line tools and the benches: a
// flag's value must parse in full as the flag's type, or the tool exits 2
// naming the flag.  Integers also take a 0x / 0X hexadecimal prefix (seeds).
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace gbdt::cli {

/// The whole of `value` as a T.  An empty value, trailing characters or a
/// value out of T's range print `--<flag>=<value> is ...` and exit 2.
template <class T>
[[nodiscard]] T number_flag(std::string_view flag, std::string_view value) {
  std::string_view digits = value;
  T v{};
  std::from_chars_result r{};
  if constexpr (std::is_integral_v<T>) {
    const bool hex = digits.size() > 2 && digits[0] == '0' &&
                     (digits[1] == 'x' || digits[1] == 'X');
    if (hex) digits.remove_prefix(2);
    r = std::from_chars(digits.data(), digits.data() + digits.size(), v,
                        hex ? 16 : 10);
  } else {
    r = std::from_chars(digits.data(), digits.data() + digits.size(), v);
  }
  if (digits.empty() || r.ec != std::errc{} ||
      r.ptr != digits.data() + digits.size()) {
    std::fprintf(stderr, "--%.*s=%.*s is %s\n", static_cast<int>(flag.size()),
                 flag.data(), static_cast<int>(value.size()), value.data(),
                 r.ec == std::errc::result_out_of_range ? "out of range"
                                                        : "not a number");
    std::exit(2);
  }
  return v;
}

}  // namespace gbdt::cli
