// Host and build identity stamped on every result record.
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {

namespace {

struct Isa {
  bool avx2 = false, avx512_vnni = false, avx_vnni = false;
};

/// CPUID leaf 7: what the CPU offers, whether or not the build uses it.
Isa detect_isa() {
  Isa isa;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    isa.avx2 = (b & (1u << 5)) != 0;
    isa.avx512_vnni = (c & (1u << 11)) != 0;
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d) != 0)
    isa.avx_vnni = (a & (1u << 4)) != 0;
#endif
  return isa;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

bool release_build() {
#ifdef NDEBUG
  return std::string(SERVEBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string host_build_json(const BuildStamp& stamp) {
  const Isa isa = detect_isa();
  auto flag = [](bool b) { return b ? "true" : "false"; };
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"avx2\":" + flag(isa.avx2) +
         ",\"avx512_vnni\":" + flag(isa.avx512_vnni) +
         ",\"avx_vnni\":" + flag(isa.avx_vnni) +
         ",\"compiler\":" + quoted(compiler()) +
         ",\"build_type\":" + quoted(SERVEBENCH_BUILD_TYPE) +
         ",\"release\":" + flag(release_build()) +
         ",\"git_sha\":" + quoted(stamp.git_sha) +
         ",\"src_digest\":" + quoted(stamp.src_digest) + "}";
}

}  // namespace servebench
