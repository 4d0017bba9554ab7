#include "stamp.h"

#include <thread>
#include <utility>

#include "bench_common.h"
#include "core/simd_kernels.h"

namespace perfbench {

Stamp MakeStamp(std::string git_sha, std::string source_digest) {
  Stamp stamp;
  stamp.hardware_threads = std::thread::hardware_concurrency();
  stamp.simd_level = netbone::SimdLevelName(netbone::ActiveSimdLevel());
  stamp.compiler = PERFBENCH_COMPILER;
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.sanitizer = netbone::bench::SanitizerBuild();
  stamp.git_sha = git_sha.empty() ? "unknown" : std::move(git_sha);
  stamp.source_digest =
      source_digest.empty() ? "unknown" : std::move(source_digest);
  return stamp;
}

std::string StampJson(const Stamp& stamp) {
  // Every field is produced above from fixed character sets (digits, hex,
  // compiler and level names), so no escaping is needed.
  return std::string("{\"hardware_threads\": ") +
         std::to_string(stamp.hardware_threads) + ", \"simd_level\": \"" +
         stamp.simd_level + "\", \"compiler\": \"" + stamp.compiler +
         "\", \"build_type\": \"" + stamp.build_type +
         "\", \"sanitizer\": " + (stamp.sanitizer ? "true" : "false") +
         ", \"git_sha\": \"" + stamp.git_sha + "\", \"source_digest\": \"" +
         stamp.source_digest + "\"}";
}

}  // namespace perfbench
