#pragma once

#include "socgen/common/hash.hpp"
#include "socgen/hls/directives.hpp"
#include "socgen/hls/engine.hpp"

#include <string>
#include <string_view>

namespace socgen::hls {

/// Binary codec for HlsResult — the unit of persistence of the flow's
/// artifact store. The encoding is a versioned flat byte stream covering
/// every field the downstream flow consumes (RTL text, netlist, schedule,
/// binding, executable program, resources), so a decoded result is
/// interchangeable with a freshly synthesized one.
///
/// The format is internal to one store: no cross-version compatibility is
/// attempted — `decodeHlsResult` throws ArtifactError on any version or
/// structure mismatch and the caller re-synthesizes.

/// Current encoding version; bumped whenever the layout changes.
/// v2: Program carries the process-network payload (child programs,
/// channels, external-port bindings).
inline constexpr std::uint32_t kHlsResultCodecVersion = 2;

[[nodiscard]] std::string encodeHlsResult(const HlsResult& result);

/// Decodes an encoded HlsResult; throws socgen::ArtifactError on
/// truncation, trailing garbage, or version mismatch.
[[nodiscard]] HlsResult decodeHlsResult(std::string_view bytes);

/// Content fingerprint of a whole network: the network name, topology
/// (channels with their depths/tokens, exports) and every process's
/// kernel fingerprint. Any change to any process or to the wiring
/// changes the digest; a change to ONE process changes that process's
/// own fingerprintKernel too, which is what per-process artifact keys
/// hash — so editing one process re-synthesizes exactly that process.
[[nodiscard]] Digest128 fingerprintNetwork(const ProcessNetwork& network);

/// Content fingerprint of a kernel: covers the signature, locals, and the
/// whole statement/expression body, so any semantic change to the kernel
/// source changes the digest.
[[nodiscard]] Digest128 fingerprintKernel(const Kernel& kernel);

/// Content fingerprint of a directive set: covers every field that can
/// influence synthesis (clock, scheduler, resource limits, trip hints,
/// unroll factors, interface protocols), not just the rendered text.
[[nodiscard]] Digest128 fingerprintDirectives(const Directives& directives);

} // namespace socgen::hls
