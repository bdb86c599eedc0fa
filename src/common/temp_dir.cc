#include "common/temp_dir.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

namespace cannikin {

std::string unique_temp_dir(const std::string& stem) {
  static std::atomic<unsigned long> next{0};
  const unsigned long n = next.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          (stem + "-" + std::to_string(::getpid()) + "-" + std::to_string(n)))
      .string();
}

}  // namespace cannikin
