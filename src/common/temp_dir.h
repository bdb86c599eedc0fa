// Process-unique scratch directory names for default checkpoint roots.
#pragma once

#include <string>

namespace cannikin {

/// Returns "<system temp dir>/<stem>-<pid>-<n>", where n counts the calls
/// made in this process, so no two runs -- in one process or in several
/// at once -- share the directory. Creates nothing.
std::string unique_temp_dir(const std::string& stem);

}  // namespace cannikin
