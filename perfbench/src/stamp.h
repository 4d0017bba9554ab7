// Host and build stamp carried by every result the benchmark writes, so
// that two results from different hosts or builds are never compared
// without it showing.
#ifndef PERFBENCH_STAMP_H_
#define PERFBENCH_STAMP_H_

#include <string>

namespace perfbench {

struct Stamp {
  unsigned hardware_threads = 0;
  std::string simd_level;
  std::string compiler;
  std::string build_type;
  bool sanitizer = false;
  /// The commit the sources came from, or "unknown" outside a git
  /// checkout.
  std::string git_sha;
  /// Digest of the library sources, which identifies the code in a
  /// checkout that is not a git repository.
  std::string source_digest;
};

Stamp MakeStamp(std::string git_sha, std::string source_digest);

/// One JSON object.
std::string StampJson(const Stamp& stamp);

}  // namespace perfbench

#endif  // PERFBENCH_STAMP_H_
