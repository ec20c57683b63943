#pragma once

#include <string>
#include <string_view>

namespace perfbench {

/// SHA-256 of `bytes` as 64 lowercase hex digits (FIPS 180-4), so the
/// runner can compare an output against `sha256sum` of the same file.
[[nodiscard]] std::string sha256_hex(std::string_view bytes);

}  // namespace perfbench
